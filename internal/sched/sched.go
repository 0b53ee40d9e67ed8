// Package sched is the multi-device job scheduler behind the sccgd service:
// it owns a pool of simulated GPUs plus CPU pipeline workers, accepts
// cross-comparison jobs (sources of decoded image tiles: each tile's two
// polygon sets), shards each job's tiles across the executor-slot pool, runs
// every shard's parsed tiles through pipeline.RunParsed, and merges the
// shard reports into one job result.
//
// This generalises the paper's single-node resident service (one process
// owning one GPU, §4) to a pool of executor slots: each slot is one
// exclusive, non-preemptive simulated GTX 580 (plus, with HybridCPU,
// co-executing PixelBox-CPU workers), or on a pool without devices one
// CPU pipeline, and it runs exactly one shard at a time. A job splits into
// at most one shard per slot. Per-slot busy time and launch counts are
// accounted so a load balancer (or the /metrics endpoint) can see skew, and
// per-executor pipeline accounting flows into the optional metrics Registry.
//
// Jobs wait in one queue per QoS band under weighted fair sharing with the
// fixed DefaultBandWeights; on a pool of two or more slots one slot is
// reserved for interactive jobs.
//
// Jobs move queued → running → done | failed | canceled. Cancellation is
// shard-granular: a canceled job stops dispatching new shards immediately,
// but a shard already on a device runs to completion (kernels are
// non-preemptive). Only live jobs and the last keepFinishedJobs finished
// ones are remembered; answers that must outlive them belong to the caller.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
	"repro/internal/trace"
)

// Config wires a scheduler.
type Config struct {
	// Devices is the number of simulated GTX 580s in the pool, one executor
	// slot each. 0 means a CPU-only scheduler (one slot running
	// PixelBox-CPU).
	Devices int
	// Workers is each shard pipeline's PixelBox-CPU worker count; 0 uses the
	// pipeline default.
	Workers int
	// HybridCPU co-executes PixelBox-CPU executors alongside each slot's
	// GPU, each taking whole tiles as the GPU does. The CPU executor count
	// is Workers, or 2 when Workers is unset.
	HybridCPU bool
	// QueueDepth is the queued-job limit before Submit rejects; default 64.
	// The limit spans all bands.
	QueueDepth int
	// TenantQueueLimit, when set, returns the queued-job cap for a tenant
	// (0 = unlimited). Checked under the queue lock, so two submits racing
	// one remaining slot resolve atomically: exactly one wins.
	TenantQueueLimit func(tenant string) int
	// Registry, when set, receives per-executor pipeline accounting.
	Registry *metrics.Registry
}

func (c Config) normalized() Config {
	if c.Devices < 0 {
		c.Devices = 0
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// slots returns the executor-slot count for a normalized config: one per
// GPU, or a single CPU-only slot.
func (c Config) slots() int { return max(c.Devices, 1) }

// reservedSlots is how many slots only interactive jobs lease: one when the
// pool has two or more, so an interactive job admitted under a batch flood
// starts on reserved capacity instead of waiting out a non-preemptive shard,
// and none on a single slot, which every band must be able to use.
func (c Config) reservedSlots() int { return min(c.slots()-1, 1) }

// cpuAggregators returns the per-shard CPU executor count implied by the
// config.
func (c Config) cpuAggregators() int {
	if !c.HybridCPU {
		return 0
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return 2
}

// TaskSource hands the scheduler a job's tiles lazily: Len and Weight are
// cheap metadata reads (a stored dataset serves them straight from its
// manifest), while PolyTask materializes one tile's decoded polygon sets on
// demand. Shards therefore carry tile handles, not datasets — each shard
// goroutine materializes only its own tiles right before running, so a job
// over a large stored dataset never holds the whole input in memory. Text
// never reaches the scheduler: it is parsed where it enters the service.
type TaskSource interface {
	// Len is the tile count.
	Len() int
	// Weight is tile i's cost proxy for sharding.
	Weight(i int) int64
	// PolyTask materializes tile i as pipeline input.
	PolyTask(i int) (pipeline.PolyTask, error)
}

// SourceReleaser is an optional TaskSource extension for sources holding
// external resources — the server's store-backed sources keep their datasets
// pinned against retention eviction through it. The scheduler calls Release
// exactly once, when the job reaches a terminal state (done, failed, or
// canceled — including jobs canceled while still queued and jobs finalized
// by Close).
type SourceReleaser interface {
	Release()
}

// memSource adapts in-memory tiles to the TaskSource contract, weighting
// each tile by its polygon count.
type memSource []pipeline.PolyTask

func (m memSource) Len() int                                  { return len(m) }
func (m memSource) Weight(i int) int64                        { return int64(len(m[i].A) + len(m[i].B)) }
func (m memSource) PolyTask(i int) (pipeline.PolyTask, error) { return m[i], nil }

// Tasks wraps decoded in-memory tiles as a TaskSource.
func Tasks(tasks []pipeline.PolyTask) TaskSource { return memSource(tasks) }

// State is a job's lifecycle position.
type State int

const (
	Queued State = iota
	Running
	Done
	Failed
	Canceled
)

// String returns the lowercase wire name used by the HTTP API.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID        string
	Name      string // dataset or caller-supplied label, may be empty
	Band      Band
	Tenant    string
	State     State
	Error     string // set when State == Failed
	Submitted time.Time
	Started   time.Time // zero until Running
	Finished  time.Time // zero until terminal
	Tiles     int
	Shards    int   // shards the job was split into (set when Running)
	DeviceIDs []int // pool devices that executed at least one shard
	// Report is the merged cross-comparison result, valid when State == Done.
	Report pipeline.Result
	Meta   any // the submitter's JobOpts.Meta
	// Trace is the job's stage-span breakdown, recorded from submission.
	// Snapshots of a live job show the spans so far; after the job finishes
	// its total freezes (later spans like the server's persist still appear).
	Trace *trace.Trace
}

// DeviceStats is the accounting for one pool executor slot (its GPU set, or
// a CPU-only slot).
type DeviceStats struct {
	ID          int
	Name        string
	GPUs        int     // simulated GPUs leased by this slot
	Launches    int64   // kernel launches summed over the slot's GPUs
	BusySeconds float64 // modelled device busy seconds summed over the slot's GPUs
	Shards      int64   // shards executed
	Wall        time.Duration
}

// Stats is a scheduler-wide snapshot for monitoring.
type Stats struct {
	Submitted int64
	Completed int64
	Failed    int64
	Canceled  int64
	Bands     [NumBands]BandCounts
	Tenants   map[string]TenantCounts
	Devices   []DeviceStats
}

// Errors returned by the scheduler's public API.
var (
	ErrClosed      = errors.New("sched: scheduler closed")
	ErrQueueFull   = errors.New("sched: job queue full")
	ErrTenantQueue = errors.New("sched: tenant queued-job quota reached")
	ErrNotFound    = fmt.Errorf("sched: no such job (finished jobs past the last %d are forgotten; resubmit a cached request to get its answer)", keepFinishedJobs)
	ErrTerminal    = errors.New("sched: job already finished")
	ErrEmptyJob    = errors.New("sched: job has no tasks")
)

const keepFinishedJobs = 1024 // finished jobs the scheduler remembers

// device is one pool member: a leased executor slot owning a (possibly
// empty) set of exclusive GPUs; an empty set is a CPU-only slot.
type device struct {
	id     int
	gpus   []*gpu.Device
	home   chan *device // the pool this device returns to after a lease
	shards int64        // atomic
	wallNS int64        // atomic
}

// stats sums the slot's cumulative GPU accounting.
func (d *device) stats() (launches int64, busy float64) {
	for _, g := range d.gpus {
		s := g.Stats()
		launches += s.Launches
		busy += s.BusySeconds
	}
	return launches, busy
}

type job struct {
	id        string
	name      string
	band      Band
	tenant    string
	src       TaskSource // released on finish; see tiles
	tiles     int
	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{}
	state     State
	counted   bool // still held in queue accounting (queuedTotal/queuedTenant)
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	shards    int
	devices   map[int]struct{}
	report    pipeline.Result
	meta      any
	trace     *trace.Recorder
}

// Scheduler is the job service's execution core. Create with New, submit
// with SubmitJob, observe with Job/Jobs/DeviceStats, stop with
// Close.
type Scheduler struct {
	cfg   Config
	pool  chan *device // general slots, leased by any band
	rpool chan *device // reserved slots, leased only by interactive jobs; nil when none
	devs  []*device

	wg sync.WaitGroup

	mu       sync.Mutex
	qcond    *sync.Cond // signaled on enqueue and Close; guards the fields below via mu
	jobs     map[string]*job
	closed   bool
	finished []string // the finished jobs still in jobs, oldest first

	// The banded ready queue: one FIFO per band under weighted fair sharing
	// (virtual-time WFQ). Terminal jobs (canceled while queued)
	// stay in their slice until a dequeue skips them; accounting drops them
	// immediately via job.counted.
	bands         [NumBands][]*job
	vtime         [NumBands]float64
	queuedTotal   int
	queuedByBand  [NumBands]int
	runningByBand [NumBands]int
	queuedTenant  map[string]int
	runningTenant map[string]int

	// Latency histograms, nil without a Registry.
	histQueueWait   [NumBands]*metrics.Histogram
	histJobDuration map[State]*metrics.Histogram

	nextID    int64
	submitted int64
	ended     [Canceled + 1]int64 // jobs finished in each terminal state; guarded by mu
}

// New creates a scheduler and starts its dispatch workers.
func New(cfg Config) *Scheduler {
	cfg = cfg.normalized()
	s := &Scheduler{
		cfg:           cfg,
		jobs:          make(map[string]*job),
		queuedTenant:  make(map[string]int),
		runningTenant: make(map[string]int),
	}
	s.qcond = sync.NewCond(&s.mu)
	if r := cfg.Registry; r != nil {
		for b := Band(0); b < NumBands; b++ {
			s.histQueueWait[b] = r.Histogram(metrics.Label("sccgd_job_queue_wait_seconds", "band", b.String()))
		}
		s.histJobDuration = map[State]*metrics.Histogram{
			Done:     r.Histogram(metrics.Label("sccgd_job_duration_seconds", "outcome", "done")),
			Failed:   r.Histogram(metrics.Label("sccgd_job_duration_seconds", "outcome", "failed")),
			Canceled: r.Histogram(metrics.Label("sccgd_job_duration_seconds", "outcome", "canceled")),
		}
	}
	slots := cfg.slots()
	general := slots - cfg.reservedSlots()
	s.pool = make(chan *device, general)
	if general < slots {
		s.rpool = make(chan *device, slots-general)
	}
	s.devs = make([]*device, slots)
	for i := 0; i < slots; i++ {
		d := &device{id: i, home: s.pool}
		if i >= general {
			d.home = s.rpool
		}
		if i < cfg.Devices {
			d.gpus = []*gpu.Device{gpu.NewDevice(gpu.GTX580())}
		}
		s.devs[i] = d
		d.home <- d
	}
	// One runner per executor slot: jobs run concurrently as devices free
	// up, and a single job can still fan its shards across the whole pool.
	// Runners for reserved slots dequeue only interactive jobs, so a batch
	// backlog can never occupy every runner either.
	for i := 0; i < slots; i++ {
		s.wg.Add(1)
		go s.runner(i >= general)
	}
	return s
}

// Config returns the normalized configuration the scheduler runs with.
func (s *Scheduler) Config() Config { return s.cfg }

// JobOpts qualifies a SubmitJob submission.
type JobOpts struct {
	// Name is an optional label surfaced in job listings.
	Name string
	// Band is the job's QoS class; the zero value is BandInteractive.
	Band Band
	// Tenant is the accounting identity; empty means the default tenant.
	Tenant string
	// Trace is an optional caller-provided span recorder, for callers that
	// already spent traceable time on the job before submission (the server
	// records pin/materialize spans while resolving stored datasets). A nil
	// recorder gets a fresh one, so every job carries a trace.
	Trace *trace.Recorder
	// Meta is an opaque value returned as JobStatus.Meta, forgotten with the job.
	Meta any
}

// SubmitJob enqueues a cross-comparison job whose tiles are materialized
// lazily from src (Tasks wraps in-memory tiles; a stored dataset hands out
// handles, and each shard reads only its own tiles) and returns its ID. Its
// band picks the weighted-fair queue, its tenant is charged against the
// per-tenant queued-job quota (ErrTenantQueue when at the cap — checked
// under the queue lock, so concurrent submits racing one remaining slot
// resolve to exactly one winner).
func (s *Scheduler) SubmitJob(src TaskSource, opts JobOpts) (string, error) {
	if src == nil || src.Len() == 0 {
		return "", ErrEmptyJob
	}
	if opts.Band < 0 || opts.Band >= NumBands {
		return "", fmt.Errorf("sched: invalid band %d", int(opts.Band))
	}
	if opts.Tenant == "" {
		opts.Tenant = "default"
	}
	rec := opts.Trace
	if rec == nil {
		rec = trace.NewRecorder()
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		name:      opts.Name,
		band:      opts.Band,
		tenant:    opts.Tenant,
		src:       src,
		tiles:     src.Len(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     Queued,
		submitted: time.Now(),
		devices:   make(map[int]struct{}),
		meta:      opts.Meta,
		trace:     rec,
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return "", ErrClosed
	}
	if s.queuedTotal >= s.cfg.QueueDepth {
		s.mu.Unlock()
		cancel()
		return "", ErrQueueFull
	}
	if lim := s.cfg.TenantQueueLimit; lim != nil {
		if max := lim(j.tenant); max > 0 && s.queuedTenant[j.tenant] >= max {
			s.mu.Unlock()
			cancel()
			return "", fmt.Errorf("%w: tenant %s has %d queued", ErrTenantQueue, j.tenant, max)
		}
	}
	j.id = fmt.Sprintf("job-%06d", atomic.AddInt64(&s.nextID, 1))
	s.enqueueLocked(j)
	s.jobs[j.id] = j
	atomic.AddInt64(&s.submitted, 1)
	s.mu.Unlock()
	return j.id, nil
}

// enqueueLocked appends j to its band's FIFO and wakes the runners. The
// band's virtual time catches up to the busiest active band when it was
// idle, so a band returning from idleness gets its fair share, not a burst
// of banked credit.
func (s *Scheduler) enqueueLocked(j *job) {
	b := j.band
	if len(s.bands[b]) == 0 {
		minActive := -1.0
		for ob := Band(0); ob < NumBands; ob++ {
			if ob == b || len(s.bands[ob]) == 0 {
				continue
			}
			if minActive < 0 || s.vtime[ob] < minActive {
				minActive = s.vtime[ob]
			}
		}
		if minActive < 0 {
			// Everything idle: reset the clock to keep vtime bounded.
			for ob := range s.vtime {
				s.vtime[ob] = 0
			}
		} else if s.vtime[b] < minActive {
			s.vtime[b] = minActive
		}
	}
	s.bands[b] = append(s.bands[b], j)
	j.counted = true
	s.queuedTotal++
	s.queuedByBand[b]++
	s.queuedTenant[j.tenant]++
	s.qcond.Broadcast()
}

// uncountLocked drops j from queue accounting exactly once, whether it left
// the queue by dequeue or by being finalized while still queued.
func (s *Scheduler) uncountLocked(j *job) {
	if !j.counted {
		return
	}
	j.counted = false
	s.queuedTotal--
	s.queuedByBand[j.band]--
	if n := s.queuedTenant[j.tenant]; n > 1 {
		s.queuedTenant[j.tenant] = n - 1
	} else {
		delete(s.queuedTenant, j.tenant)
	}
}

// dequeueLocked pops the next runnable job, or nil when nothing is eligible.
// Reserved-slot runners (interactiveOnly) serve only the interactive band
// and don't charge its fair-share clock — reserved capacity is dedicated,
// not part of the weighted split. General runners pick the band by
// virtual-time WFQ; weights are positive, so every non-empty band is served.
func (s *Scheduler) dequeueLocked(interactiveOnly bool) *job {
	for {
		pick := Band(-1)
		if interactiveOnly {
			if len(s.bands[BandInteractive]) == 0 {
				return nil
			}
			pick = BandInteractive
		} else {
			for b := Band(0); b < NumBands; b++ {
				if len(s.bands[b]) == 0 {
					continue
				}
				if pick < 0 || s.vtime[b] < s.vtime[pick] {
					pick = b
				}
			}
			if pick < 0 {
				return nil
			}
		}
		j := s.bands[pick][0]
		s.bands[pick] = s.bands[pick][1:]
		s.uncountLocked(j)
		if j.state.Terminal() {
			// Canceled while queued; its slot in the FIFO dies here.
			continue
		}
		if !interactiveOnly {
			s.vtime[pick] += 1 / float64(DefaultBandWeights[pick])
		}
		return j
	}
}

// hasWorkLocked reports whether a runner of the given kind could dequeue
// something (terminal leftovers count — dequeue discards them cheaply).
func (s *Scheduler) hasWorkLocked(interactiveOnly bool) bool {
	if interactiveOnly {
		return len(s.bands[BandInteractive]) > 0
	}
	for b := Band(0); b < NumBands; b++ {
		if len(s.bands[b]) > 0 {
			return true
		}
	}
	return false
}

// Cancel requests cancellation of a queued or running job. A queued job is
// finalized immediately (it stays in the queue; the runner that eventually
// dequeues it skips it); a running job stops dispatching new shards
// (in-flight shards complete, their work is discarded).
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	if j.state.Terminal() {
		s.mu.Unlock()
		return ErrTerminal
	}
	queued := j.state == Queued
	s.mu.Unlock()
	j.cancel()
	if queued {
		// finish is idempotent, so racing a runner that just dequeued the
		// job is safe: whoever transitions it first wins.
		s.finish(j, Canceled, nil, pipeline.Result{})
	}
	return nil
}

// Job returns a snapshot of the job with the given ID.
func (s *Scheduler) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.snapshotLocked(j), true
}

// Jobs returns snapshots of every job still remembered — live jobs and the
// last keepFinishedJobs finished ones — in submission order.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.snapshotLocked(j))
	}
	s.mu.Unlock()
	// IDs are zero-padded sequence numbers: (length, text) is submission order.
	sort.Slice(out, func(a, b int) bool {
		return len(out[a].ID) < len(out[b].ID) || len(out[a].ID) == len(out[b].ID) && out[a].ID < out[b].ID
	})
	return out
}

// Wait blocks until the job reaches a terminal state and returns its final
// snapshot, or fails when ctx expires first.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(j), nil
}

// DeviceStats returns per-device accounting for the pool.
func (s *Scheduler) DeviceStats() []DeviceStats {
	out := make([]DeviceStats, len(s.devs))
	for i, d := range s.devs {
		ds := DeviceStats{
			ID:     d.id,
			Name:   "cpu",
			GPUs:   len(d.gpus),
			Shards: atomic.LoadInt64(&d.shards),
			Wall:   time.Duration(atomic.LoadInt64(&d.wallNS)),
		}
		if len(d.gpus) > 0 {
			ds.Name = d.gpus[0].Config().Name
			ds.Launches, ds.BusySeconds = d.stats()
		}
		out[i] = ds
	}
	return out
}

// Stats returns a scheduler-wide snapshot.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Submitted: atomic.LoadInt64(&s.submitted),
		Devices:   s.DeviceStats(),
		Tenants:   make(map[string]TenantCounts),
	}
	s.mu.Lock()
	st.Completed, st.Failed, st.Canceled = s.ended[Done], s.ended[Failed], s.ended[Canceled]
	for b := Band(0); b < NumBands; b++ {
		st.Bands[b] = BandCounts{Queued: s.queuedByBand[b], Running: s.runningByBand[b]}
	}
	for t, n := range s.queuedTenant {
		tc := st.Tenants[t]
		tc.Queued = n
		st.Tenants[t] = tc
	}
	for t, n := range s.runningTenant {
		tc := st.Tenants[t]
		tc.Running = n
		st.Tenants[t] = tc
	}
	s.mu.Unlock()
	return st
}

// Close stops the runners after in-flight jobs finish and cancels queued
// jobs. Submit fails with ErrClosed afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.qcond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	// Runners are gone: finalize whatever is still queued.
	for {
		s.mu.Lock()
		var j *job
		for b := Band(0); b < NumBands && j == nil; b++ {
			if len(s.bands[b]) > 0 {
				j = s.bands[b][0]
				s.bands[b] = s.bands[b][1:]
				s.uncountLocked(j)
			}
		}
		s.mu.Unlock()
		if j == nil {
			return
		}
		s.finish(j, Canceled, nil, pipeline.Result{})
	}
}

func (s *Scheduler) snapshotLocked(j *job) JobStatus {
	st := JobStatus{
		ID:        j.id,
		Name:      j.name,
		Band:      j.band,
		Tenant:    j.tenant,
		State:     j.state,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Tiles:     j.tiles,
		Shards:    j.shards,
		Report:    j.report,
		Meta:      j.meta,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	for id := range j.devices {
		st.DeviceIDs = append(st.DeviceIDs, id)
	}
	// The recorder has its own lock and Snapshot takes no scheduler locks,
	// so snapshotting under s.mu is safe.
	st.Trace = j.trace.Snapshot()
	return st
}

// runner is one dispatch loop. Reserved-slot runners (interactiveOnly)
// serve only the interactive band, so even with every general runner deep
// in a batch job an interactive submission is picked up immediately.
func (s *Scheduler) runner(interactiveOnly bool) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && !s.hasWorkLocked(interactiveOnly) {
			s.qcond.Wait()
		}
		if s.closed {
			// Close finalizes whatever is still queued after runners exit.
			s.mu.Unlock()
			return
		}
		j := s.dequeueLocked(interactiveOnly)
		s.mu.Unlock()
		if j != nil {
			s.runJob(j)
		}
	}
}

// runJob executes one job: shard, lease devices, run pipelines, merge.
func (s *Scheduler) runJob(j *job) {
	if j.ctx.Err() != nil {
		s.finish(j, Canceled, nil, pipeline.Result{})
		return
	}
	s.mu.Lock()
	if j.state.Terminal() {
		// Cancel finalized the job while it sat in the queue.
		s.mu.Unlock()
		return
	}
	// Capture the source under the lock: finish() releases j.src on any
	// terminal transition, and Cancel can finalize the job concurrently with
	// the shard goroutines below (it saw the job still queued before this
	// runner marked it running).
	src := j.src
	s.mu.Unlock()

	// Sharding scans every task's Weight — O(tiles) over a large stored
	// dataset — so it must not run under s.mu: every Jobs/Job/Stats
	// snapshot (and through them /jobs, /metrics, /healthz) would stall
	// behind it. Len/Weight are in-memory manifest reads on every source, so
	// scanning outside the lock races nothing but the terminal re-check
	// below: if Cancel finalized the job while it sharded, the shards are
	// discarded unstarted exactly as if the cancel had won the queue race.
	shardStart := time.Now()
	shards := shardTasks(src, len(s.devs))

	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	j.state = Running
	j.started = time.Now()
	j.shards = len(shards)
	s.runningByBand[j.band]++
	s.runningTenant[j.tenant]++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.runningByBand[j.band]--
		if n := s.runningTenant[j.tenant]; n > 1 {
			s.runningTenant[j.tenant] = n - 1
		} else {
			delete(s.runningTenant, j.tenant)
		}
		s.mu.Unlock()
	}()
	// The queue span's detail names the band, so a slow-query trace shows
	// which class of backlog the job waited behind.
	j.trace.Add("queue", j.band.String(), j.submitted, shardStart)
	j.trace.Add("shard", fmt.Sprintf("%d shards", len(shards)), shardStart, j.started)
	if h := s.histQueueWait[j.band]; h != nil {
		h.ObserveDuration(shardStart.Sub(j.submitted))
	}

	results := make([]pipeline.Result, len(shards))
	errs := make([]error, len(shards))
	ran := make([]bool, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		// Lease a device per shard; the lease blocks until a pool member is
		// free, so a job never oversubscribes an exclusive device. Stop
		// dispatching as soon as the job is canceled or a shard has failed.
		if j.ctx.Err() != nil {
			break
		}
		var dev *device
		if j.band == BandInteractive && s.rpool != nil {
			// Interactive shards lease from whichever pool frees first; the
			// reserved slots exist exactly for this moment, when every
			// general slot is held by a non-preemptive batch shard.
			select {
			case dev = <-s.pool:
			case dev = <-s.rpool:
			case <-j.ctx.Done():
			}
		} else {
			select {
			case dev = <-s.pool:
			case <-j.ctx.Done():
			}
		}
		if dev == nil {
			break
		}
		wg.Add(1)
		go func(i int, idxs []int, dev *device) {
			defer wg.Done()
			defer func() { dev.home <- dev }()
			start := time.Now()
			pcfg := pipeline.Config{
				Devices:        dev.gpus,
				CPUAggregators: s.cfg.cpuAggregators(),
				CPU:            pixelbox.CPUConfig{Workers: s.cfg.Workers},
				Registry:       s.cfg.Registry,
				ExecutorLabel:  fmt.Sprintf("slot%d/", dev.id),
			}
			// Materialize only this shard's tiles from the source — for a
			// stored dataset that means reading just these tiles out of the
			// decoded-tile cache or the segment file.
			res, err, executed := s.runShard(j.trace, fmt.Sprintf("slot%d shard%d", dev.id, i), src, idxs, pcfg)
			if !executed {
				// Materialization failure: no pipeline ran at all.
				errs[i] = err
				ran[i] = true
				j.cancel() // fail fast, as with a pipeline error
				s.mu.Lock()
				j.devices[dev.id] = struct{}{}
				s.mu.Unlock()
				return
			}
			atomic.AddInt64(&dev.shards, 1)
			atomic.AddInt64(&dev.wallNS, int64(time.Since(start)))
			results[i], errs[i], ran[i] = res, err, true
			if err != nil {
				j.cancel() // fail fast: stop dispatching the job's remaining shards
			}
			s.mu.Lock()
			j.devices[dev.id] = struct{}{}
			s.mu.Unlock()
		}(i, shard, dev)
	}
	wg.Wait()

	var firstErr error
	complete := true
	merged := make([]pipeline.Result, 0, len(shards))
	for i := range shards {
		if !ran[i] {
			complete = false
			continue
		}
		if errs[i] != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d/%d: %w", i+1, len(shards), errs[i])
		}
		merged = append(merged, results[i])
	}
	switch {
	case firstErr != nil:
		s.finish(j, Failed, firstErr, pipeline.Result{})
	case !complete || j.ctx.Err() != nil:
		// Either shards were never dispatched, or cancellation arrived after
		// the last shard went out: the work is discarded either way.
		s.finish(j, Canceled, nil, pipeline.Result{})
	default:
		mergeStart := time.Now()
		report := pipeline.Merge(merged...)
		j.trace.Add("merge", fmt.Sprintf("%d shards", len(merged)), mergeStart, time.Now())
		// Merge's WallTime is the max across shards, which assumes they ran
		// concurrently; with more shards than free devices they serialize,
		// so report the job's real elapsed time instead.
		report.Stats.WallTime = time.Since(j.started)
		s.finish(j, Done, nil, report)
	}
}

// runShard materializes one shard's tiles and runs them through the
// pipeline; executed reports whether a pipeline ran at all (false means
// materialization failed and err describes the tile). Materialize and
// execute spans are recorded under detail (slot + shard).
func (s *Scheduler) runShard(rec *trace.Recorder, detail string, src TaskSource, idxs []int, pcfg pipeline.Config) (res pipeline.Result, err error, executed bool) {
	matStart := time.Now()
	shard := make([]pipeline.PolyTask, 0, len(idxs))
	for _, ix := range idxs {
		t, terr := src.PolyTask(ix)
		if terr != nil {
			return pipeline.Result{}, fmt.Errorf("materialize tile %d: %w", ix, terr), false
		}
		shard = append(shard, t)
	}
	execStart := time.Now()
	rec.Add("materialize", detail, matStart, execStart)
	res, err = pipeline.RunParsed(shard, pcfg)
	rec.Add("execute", detail, execStart, time.Now())
	return res, err, true
}

// finish moves a job to a terminal state. It is idempotent: Cancel can
// finalize a queued job while a runner races to dequeue it, and only the
// first finisher takes effect.
func (s *Scheduler) finish(j *job, state State, err error, report pipeline.Result) {
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	j.state = state
	j.err = err
	j.finished = time.Now()
	j.report = report
	// Count the outcome in the section that makes the terminal state
	// visible, so a client that polls "done" then scrapes /metrics sees it
	// counted. Job latency is submission → terminal: queue wait included,
	// because that is the latency a client experiences.
	s.ended[state]++
	if h := s.histJobDuration[state]; h != nil {
		h.ObserveDuration(j.finished.Sub(j.submitted))
	}
	// A job finalized while still queued leaves quota accounting now; its
	// FIFO slot is discarded by whichever dequeue reaches it.
	s.uncountLocked(j)
	src := j.src
	j.src = nil // release the input source
	s.finished = append(s.finished, j.id)
	if len(s.finished) > keepFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	j.trace.Finish()
	if rel, ok := src.(SourceReleaser); ok {
		// Outside the lock: Release may take the store's lock (unpinning),
		// and only the first finisher sees a non-nil src, so this runs once.
		rel.Release()
	}
	j.cancel()
	close(j.done)
}

// shardTasks splits the source's tile indices into at most maxShards
// shards, never more than one shard per tile, weighting each shard by the
// source's tile weights so shard finish times even out when tile sizes are
// skewed (round-robin by count let one segment-heavy shard serialize the
// job's tail). Longest-processing-time greedy: tiles are considered
// heaviest first and each goes to the currently lightest shard; ties break
// on lowest index, keeping the split deterministic for a given source.
func shardTasks(src TaskSource, maxShards int) [][]int {
	n := maxShards
	if n > src.Len() {
		n = src.Len()
	}
	if n < 1 {
		n = 1
	}
	order := make([]int, src.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return src.Weight(order[a]) > src.Weight(order[b])
	})
	shards := make([][]int, n)
	loads := make([]int64, n)
	for _, ix := range order {
		lightest := 0
		for sh := 1; sh < n; sh++ {
			if loads[sh] < loads[lightest] {
				lightest = sh
			}
		}
		shards[lightest] = append(shards[lightest], ix)
		loads[lightest] += src.Weight(ix)
	}
	// Tiles within a shard run in index order; determinism of the merged
	// result never depends on it (tile-canonical folding), but ordered
	// reads keep store access sequential within each shard.
	for _, sh := range shards {
		sort.Ints(sh)
	}
	return shards
}
