// Package sched is the job scheduler behind the sccgd service: it owns a
// fixed set of tile workers — one per simulated GPU, plus PixelBox-CPU
// workers — and accepts cross-comparison jobs (sources of decoded image
// tiles: each tile's two polygon sets).
//
// The tile is the unit of work, as in the paper's framework (§4), which
// schedules tile-sized tasks dynamically across its CPU and GPU executors. A
// free worker picks a job, takes that job's next tile, materializes it
// itself, builds, joins and counts it (pipeline.TilePass) and keeps the
// tile's partial in the job's slot for it; when the job's last tile returns,
// the job folds its tiles in canonical order (pipeline.Fold), so the answer
// is bit-identical whichever worker took which tile. Decode therefore runs
// on every worker and overlaps compute, and a job holds at most one
// materialized tile per worker. Per-worker tile counts, busy time and device
// accounting are kept for /metrics and /healthz.
//
// Jobs wait in one queue per QoS band under weighted fair sharing with the
// fixed DefaultBandWeights, charged per tile, so an interactive job waits at
// most about one tile time behind batch work. Batch tiles never hold more
// than all cores but one, so a core is always left to interactive tiles and
// to request handling.
//
// Jobs move queued → running → done | failed | canceled. Cancellation is
// tile-granular: after a cancel (or a tile's failure) no worker takes
// another of the job's tiles, and the job ends once its tiles in flight
// have returned. Only live jobs and the last keepFinishedJobs finished ones
// are remembered; answers that must outlive them belong to the caller.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Config wires a scheduler.
type Config struct {
	// Devices is the number of simulated GTX 580s, one worker each.
	Devices int
	// Workers is the PixelBox-CPU worker count, GOMAXPROCS when 0. CPU
	// workers run when Devices is 0 or HybridCPU is set.
	Workers int
	// HybridCPU runs the CPU workers beside the GPU workers.
	HybridCPU bool
	// QueueDepth is the queued-job limit before Submit rejects; default 64.
	// The limit spans all bands.
	QueueDepth int
	// TenantQueueLimit, when set, returns the queued-job cap for a tenant
	// (0 = unlimited). Checked under the queue lock, so two submits racing
	// one remaining slot resolve atomically: exactly one wins.
	TenantQueueLimit func(tenant string) int
	// Registry, when set, receives the workers' executor series and the job
	// latency histograms.
	Registry *metrics.Registry
}

func (c Config) normalized() Config {
	c.Devices = max(c.Devices, 0)
	c.Workers = max(c.Workers, 0)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// TaskSource hands the scheduler a job's tiles lazily: Len is a cheap
// metadata read (a stored dataset serves it straight from its manifest),
// while PolyTask materializes one tile's decoded polygon sets on demand. The
// worker that takes a tile calls PolyTask for it, so a job over a large
// stored dataset never holds more of its input than one tile per worker.
// Text never reaches the scheduler: it is parsed where it enters the
// service.
type TaskSource interface {
	// Len is the tile count.
	Len() int
	// PolyTask materializes tile i as pipeline input. Workers call it
	// concurrently for different tiles.
	PolyTask(i int) (pipeline.PolyTask, error)
}

// SourceReleaser is an optional TaskSource extension for sources holding
// external resources — the server's store-backed sources keep their datasets
// pinned against retention eviction through it. The scheduler calls Release
// exactly once, when the job reaches a terminal state (done, failed, or
// canceled — including jobs canceled while still queued and jobs finalized
// by Close), and never while one of the job's PolyTask calls runs.
type SourceReleaser interface {
	Release()
}

// memSource adapts in-memory tiles to the TaskSource contract.
type memSource []pipeline.PolyTask

func (m memSource) Len() int                                  { return len(m) }
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
	DeviceIDs []string // the workers that took at least one of its tiles, in pool order
	// Report is the folded cross-comparison result, valid when State == Done.
	Report pipeline.Result
	Meta   any // the submitter's JobOpts.Meta
	// Trace is the job's stage-span breakdown, recorded from submission.
	// Snapshots of a live job show the spans so far; after the job finishes
	// its total freezes (later spans like the server's persist still appear).
	Trace *trace.Trace
}

// DeviceStats is the accounting for one worker.
type DeviceStats struct {
	ID          string  // gpu0, gpu1, …, cpu0, …
	Kind        string  // pipeline.ExecGPU or pipeline.ExecCPU
	Launches    int64   // kernel launches on the worker's GPU
	BusySeconds float64 // modelled busy seconds of the worker's GPU
	Tiles       int64   // tiles run
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

// worker is one executor of the pool — a simulated GPU or a PixelBox-CPU
// counter — running one tile at a time.
type worker struct {
	idx    int
	id     string
	kind   string
	pass   pipeline.TilePass
	tiles  atomic.Int64
	wallNS atomic.Int64
	// The executor series; nil without a Registry.
	batches, pairs *metrics.Counter
	batchHist      *metrics.Histogram
}

type job struct {
	id        string
	name      string
	band      Band
	tenant    string
	src       TaskSource // released on finish
	tiles     int
	done      chan struct{}
	state     State
	counted   bool // still held in queue accounting (queuedTotal/queuedTenant)
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	report    pipeline.Result
	meta      any
	trace     *trace.Recorder

	// Tile state, guarded by the scheduler's mu.
	next     int                      // the next tile to hand out
	inflight int                      // tiles handed out and not yet returned
	stopped  bool                     // canceled or failed: hand out no more tiles
	parts    []pipeline.TileResult    // each tile's pass, kept until the fold
	execs    []pipeline.ExecutorStats // the job's tiles on each worker
	mat      time.Duration            // materialize time summed over its tiles
	exec     time.Duration            // execute time summed over its tiles
}

// Scheduler is the job service's execution core. Create with New, submit
// with SubmitJob, observe with Job/Jobs/DeviceStats, stop with
// Close.
type Scheduler struct {
	cfg     Config
	workers []*worker

	wg sync.WaitGroup

	mu       sync.Mutex
	qcond    *sync.Cond // signaled on enqueue and Close; guards the fields below via mu
	jobs     map[string]*job
	closed   bool
	finished []string // the finished jobs still in jobs, oldest first

	// The banded ready queue: one FIFO per band under weighted fair sharing
	// (virtual-time WFQ, charged per tile). A job stays at its band's head
	// until its last tile is handed out; jobs that end while queued stay in
	// their slice until a pick skips them, and accounting drops them
	// immediately via job.counted.
	bands         [NumBands][]*job
	vtime         [NumBands]float64
	queuedTotal   int
	queuedByBand  [NumBands]int
	runningByBand [NumBands]int
	queuedTenant  map[string]int
	runningTenant map[string]int
	// Batch tiles in flight, and their cap: all cores but one (at least
	// one), so batch work always leaves a core to interactive tiles and to
	// request handling.
	batchInflight int
	batchCap      int

	// Latency histograms, nil without a Registry.
	histQueueWait   [NumBands]*metrics.Histogram
	histJobDuration map[State]*metrics.Histogram

	nextID    int64
	submitted int64
	ended     [Canceled + 1]int64 // jobs finished in each terminal state; guarded by mu
}

// New creates a scheduler and starts its workers: one per simulated GPU,
// and Workers (default GOMAXPROCS) CPU workers when there are no GPUs or
// HybridCPU is set.
func New(cfg Config) *Scheduler {
	cfg = cfg.normalized()
	s := &Scheduler{
		cfg:           cfg,
		jobs:          make(map[string]*job),
		queuedTenant:  make(map[string]int),
		runningTenant: make(map[string]int),
		batchCap:      max(runtime.GOMAXPROCS(0)-1, 1),
	}
	s.qcond = sync.NewCond(&s.mu)
	r := cfg.Registry
	if r != nil {
		for b := Band(0); b < NumBands; b++ {
			s.histQueueWait[b] = r.Histogram(metrics.Label("sccgd_job_queue_wait_seconds", "band", b.String()))
		}
		s.histJobDuration = map[State]*metrics.Histogram{
			Done:     r.Histogram(metrics.Label("sccgd_job_duration_seconds", "outcome", "done")),
			Failed:   r.Histogram(metrics.Label("sccgd_job_duration_seconds", "outcome", "failed")),
			Canceled: r.Histogram(metrics.Label("sccgd_job_duration_seconds", "outcome", "canceled")),
		}
	}
	add := func(kind string, n int, dev *gpu.Device) {
		w := &worker{idx: len(s.workers), id: fmt.Sprintf("%s%d", kind, n), kind: kind, pass: pipeline.TilePass{Device: dev}}
		if r != nil {
			w.batches = r.Counter(metrics.Label("sccg_executor_batches_total", "executor", w.id))
			w.pairs = r.Counter(metrics.Label("sccg_executor_pairs_total", "executor", w.id))
			w.batchHist = r.Histogram(metrics.Label("sccg_executor_batch_seconds", "kind", kind))
		}
		s.workers = append(s.workers, w)
	}
	for i := 0; i < cfg.Devices; i++ {
		add(pipeline.ExecGPU, i, gpu.NewDevice(gpu.GTX580()))
	}
	if cfg.Devices == 0 || cfg.HybridCPU {
		n := cfg.Workers
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		for i := 0; i < n; i++ {
			add(pipeline.ExecCPU, i, nil)
		}
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go s.work(w)
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
// lazily from src, each by the worker that takes it (Tasks wraps in-memory
// tiles; a stored dataset hands out handles), and returns its ID. Its band
// picks the weighted-fair queue, its tenant is charged against the
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
	j := &job{
		name:      opts.Name,
		band:      opts.Band,
		tenant:    opts.Tenant,
		src:       src,
		tiles:     src.Len(),
		done:      make(chan struct{}),
		state:     Queued,
		submitted: time.Now(),
		meta:      opts.Meta,
		trace:     rec,
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if s.queuedTotal >= s.cfg.QueueDepth {
		return "", ErrQueueFull
	}
	if lim := s.cfg.TenantQueueLimit; lim != nil {
		if max := lim(j.tenant); max > 0 && s.queuedTenant[j.tenant] >= max {
			return "", fmt.Errorf("%w: tenant %s has %d queued", ErrTenantQueue, j.tenant, max)
		}
	}
	j.id = fmt.Sprintf("job-%06d", atomic.AddInt64(&s.nextID, 1))
	s.enqueueLocked(j)
	s.jobs[j.id] = j
	atomic.AddInt64(&s.submitted, 1)
	return j.id, nil
}

// enqueueLocked appends j to its band's FIFO and wakes the workers. The
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
// the queue by starting or by being finalized while still queued.
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

// pickLocked hands a free worker its next tile: the head job of the band
// the virtual-time clock picks, and that job's next tile index. The clock
// is charged one tile; weights are positive, so every non-empty band is
// served. The batch band waits while batchCap of its tiles are in flight. A
// job starts at its first tile and leaves its band's FIFO with its last; a
// job that ended or stopped is dropped from it unserved. Once the scheduler
// is closed only started jobs hand out tiles. It returns nil when there is
// no tile to hand out.
func (s *Scheduler) pickLocked() (*job, int) {
	for {
		pick := Band(-1)
		for b := Band(0); b < NumBands; b++ {
			if len(s.bands[b]) == 0 || s.closed && s.bands[b][0].state != Running ||
				b == BandBatch && s.batchInflight >= s.batchCap {
				continue
			}
			if pick < 0 || s.vtime[b] < s.vtime[pick] {
				pick = b
			}
		}
		if pick < 0 {
			return nil, 0
		}
		j := s.bands[pick][0]
		if j.state.Terminal() || j.stopped {
			s.bands[pick] = s.bands[pick][1:]
			continue
		}
		if j.state == Queued {
			s.startLocked(j)
		}
		i := j.next
		j.next++
		j.inflight++
		if pick == BandBatch {
			s.batchInflight++
		}
		if j.next == j.tiles {
			s.bands[pick] = s.bands[pick][1:]
		}
		s.vtime[pick] += 1 / float64(DefaultBandWeights[pick])
		return j, i
	}
}

// startLocked moves j from queued to running at its first tile.
func (s *Scheduler) startLocked(j *job) {
	s.uncountLocked(j)
	j.state = Running
	j.started = time.Now()
	j.parts = make([]pipeline.TileResult, j.tiles)
	j.execs = make([]pipeline.ExecutorStats, len(s.workers))
	for i, w := range s.workers {
		j.execs[i] = pipeline.ExecutorStats{ID: w.id, Kind: w.kind}
	}
	s.runningByBand[j.band]++
	s.runningTenant[j.tenant]++
	// The queue span's detail names the band, so a slow-query trace shows
	// which class of backlog the job waited behind.
	j.trace.Add("queue", j.band.String(), j.submitted, j.started)
	if h := s.histQueueWait[j.band]; h != nil {
		h.ObserveDuration(j.started.Sub(j.submitted))
	}
}

// work is one worker's loop: pick a tile, materialize and run it outside
// the lock, return it.
func (s *Scheduler) work(w *worker) {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		j, i := s.pickLocked()
		if j == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.qcond.Wait()
			continue
		}
		src := j.src
		s.mu.Unlock()

		start := time.Now()
		t, err := src.PolyTask(i)
		materialized := time.Now()
		var r pipeline.TileResult
		if err != nil {
			err = fmt.Errorf("materialize tile %d: %w", i, err)
		} else {
			r, err = w.pass.Run(t)
		}
		end := time.Now()
		if err == nil {
			w.tiles.Add(1)
			w.wallNS.Add(int64(end.Sub(start)))
			if w.batches != nil {
				w.batches.Inc()
				w.pairs.Add(int64(r.Candidates))
				w.batchHist.ObserveDuration(r.Count)
			}
		}

		s.mu.Lock()
		j.inflight--
		if j.band == BandBatch {
			s.batchInflight--
			s.qcond.Signal() // a worker that found batch capped may take the tile this one leaves
		}
		if err != nil {
			if j.err == nil {
				j.err = err
			}
			j.stopped = true
		} else {
			j.parts[i] = r
			e := &j.execs[w.idx]
			e.Batches++
			e.Pairs += int64(r.Candidates)
			e.Busy += r.Count
			j.mat += materialized.Sub(start)
			j.exec += end.Sub(materialized)
		}
		if j.inflight == 0 && (j.stopped || j.next == j.tiles) {
			s.mu.Unlock()
			s.complete(j)
			s.mu.Lock()
		}
	}
}

// complete ends a started job whose tiles have all returned: failed on a
// tile's error, canceled when stopped, otherwise done with its tiles
// folded.
func (s *Scheduler) complete(j *job) {
	s.mu.Lock()
	err, stopped, parts, execs := j.err, j.stopped, j.parts, j.execs
	tiles, workers := 0, 0
	for _, e := range j.execs {
		tiles += int(e.Batches)
		workers += min(int(e.Batches), 1)
	}
	detail := fmt.Sprintf("%d tiles, %d workers", tiles, workers)
	j.trace.AddDuration("materialize", detail, j.started, j.mat)
	j.trace.AddDuration("execute", detail, j.started, j.exec)
	s.mu.Unlock()
	switch {
	case err != nil:
		s.finish(j, Failed, err, pipeline.Result{})
	case stopped:
		s.finish(j, Canceled, nil, pipeline.Result{})
	default:
		foldStart := time.Now()
		report := pipeline.Fold(parts)
		j.trace.Add("merge", fmt.Sprintf("%d tiles", len(parts)), foldStart, time.Now())
		report.Stats.WallTime = time.Since(j.started)
		report.Stats.Executors = execs
		s.finish(j, Done, nil, report)
	}
}

// Cancel requests cancellation of a queued or running job. A queued job, or
// a running one with no tile in flight, is finalized immediately (a queued
// one stays in its FIFO until a pick skips it); otherwise no worker takes
// another of its tiles, and the job ends as canceled once its tiles in
// flight have returned.
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
	j.stopped = true
	now := j.inflight == 0
	s.mu.Unlock()
	if now {
		// finish is idempotent, so racing the worker that returned the
		// job's last tile is safe: whoever transitions it first wins.
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

// DeviceStats returns per-worker accounting for the pool, GPU workers first.
func (s *Scheduler) DeviceStats() []DeviceStats {
	out := make([]DeviceStats, len(s.workers))
	for i, w := range s.workers {
		out[i] = DeviceStats{
			ID:    w.id,
			Kind:  w.kind,
			Tiles: w.tiles.Load(),
			Wall:  time.Duration(w.wallNS.Load()),
		}
		if dev := w.pass.Device; dev != nil {
			d := dev.Stats()
			out[i].Launches, out[i].BusySeconds = d.Launches, d.BusySeconds
		}
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

// Close lets running jobs finish, then stops the workers and cancels queued
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
	// Workers are gone: finalize whatever is still queued.
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
		Report:    j.report,
		Meta:      j.meta,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	for _, e := range j.execs {
		if e.Batches > 0 {
			st.DeviceIDs = append(st.DeviceIDs, e.ID)
		}
	}
	// The recorder has its own lock and Snapshot takes no scheduler locks,
	// so snapshotting under s.mu is safe.
	st.Trace = j.trace.Snapshot()
	return st
}

// finish moves a job to a terminal state. It is idempotent: Cancel can
// finalize a job while a worker races to start or complete it, and only the
// first finisher takes effect.
func (s *Scheduler) finish(j *job, state State, err error, report pipeline.Result) {
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	if j.state == Running {
		s.runningByBand[j.band]--
		if n := s.runningTenant[j.tenant]; n > 1 {
			s.runningTenant[j.tenant] = n - 1
		} else {
			delete(s.runningTenant, j.tenant)
		}
	}
	j.state = state
	j.err = err
	j.finished = time.Now()
	j.report = report
	j.stopped = true
	j.parts = nil
	// Count the outcome in the section that makes the terminal state
	// visible, so a client that polls "done" then scrapes /metrics sees it
	// counted. Job latency is submission → terminal: queue wait included,
	// because that is the latency a client experiences.
	s.ended[state]++
	if h := s.histJobDuration[state]; h != nil {
		h.ObserveDuration(j.finished.Sub(j.submitted))
	}
	// A job finalized while still queued leaves quota accounting now; its
	// FIFO slot is discarded by whichever pick reaches it.
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
	close(j.done)
}
