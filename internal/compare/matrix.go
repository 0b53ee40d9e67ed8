package compare

// K-way matrix runs: given stored dataset IDs, plan the pairwise cells,
// submit each cell through the service's cache-aware job submitter (so
// repeated content is answered without recompute — including from the
// persisted cache after a restart), fan the remaining cells out with bounded
// concurrency, and aggregate the per-cell outcomes into a similarity matrix.
//
// Runs come in two shapes. A symmetric run over `datasets` plans the
// K·(K−1)/2 unordered pairs and mirrors them into a K×K grid (the diagonal
// is the self-comparison, marked "self", never computed). A bipartite run
// over `set_a` × `set_b` plans every oriented (row, column) cell — including
// equal IDs, which degenerate to the dataset's own embedded A-vs-B job.
//
// Progressive execution: when the run carries a top_k or min_similarity
// objective, a plan phase first derives a cheap, sound upper bound per cell
// from manifest metadata (bound.go), and cells are dispatched in
// descending-bound order, plan order breaking ties. At dispatch time a cell
// whose bound cannot reach the objective is finished without a job:
// `skipped` when the bound falls below min_similarity (or is zero),
// `bounded` when top_k exact results already at or above its bound exist.
// New exact results also prune in-flight cells: their owned jobs are
// canceled and the cells finish `bounded`. Bounds are upper bounds, so a
// skipped cell's true similarity never exceeds the recorded bound — exact
// results are only ever elided, never approximated.
//
// The run's cell table is the only record of which jobs belong to it: each
// cell carries its job ID and whether the run owns that job (submitted it)
// or merely attached to another submitter's job through a cache hit.
// Cancelling the run, or pruning a cell, cancels owned jobs straight from the
// table and leaves shared ones running for their other consumers; a status's
// counts are computed from the same cells.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/tilepass"
	"repro/internal/trace"
)

// Cell states surfaced in a matrix status.
const (
	CellPending  = "pending"
	CellRunning  = "running"
	CellDone     = "done"
	CellFailed   = "failed"
	CellCanceled = "canceled"
	CellSelf     = "self" // diagonal placeholder, never computed
	// CellSkipped marks a cell elided statically: its bound falls below the
	// run's min_similarity (or is zero), so the exact job was never needed.
	CellSkipped = "skipped"
	// CellBounded marks a cell elided by the top-k objective: enough exact
	// results at or above its bound exist, so it cannot enter the answer.
	CellBounded = "bounded"
)

// Run states.
const (
	RunRunning  = "running"
	RunDone     = "done"
	RunFailed   = "failed"
	RunCanceled = "canceled"
)

// SubmitOutcome is what the cache-aware submitter returns for one cell.
type SubmitOutcome struct {
	// JobID is the live scheduler job computing (or having computed) the
	// cell; empty when a persisted report answered without a job.
	JobID string
	// Cached marks answers served from the result cache (live or persisted).
	Cached bool
	// Trace carries the spans of an answer with no job behind it: a peer's
	// cached result brings its cluster leg plus the serving peer's spliced
	// spans. A cell with a job has its trace on the job.
	Trace *trace.Trace
	// Report is set when the cell was answered terminal-immediately from a
	// persisted report; the run records it without waiting on any job.
	Report *tilepass.Result
	// Tiles and the unmatched counts describe the cell's tile pairing.
	Tiles      int
	UnmatchedA int
	UnmatchedB int
}

// SubmitFunc submits (or resolves from cache) one pairwise cell job
// comparing dataset idA's set A against dataset idB's set B. tenant is the
// run's accounting identity — cells run in the batch band charged to it.
type SubmitFunc func(idA, idB, tenant string) (SubmitOutcome, error)

// BoundFunc computes a cell's similarity upper bound (bound.go behind the
// server's store).
type BoundFunc func(idA, idB string) (CellBound, error)

// Scheduler is what a run needs of the job scheduler once the submitter has
// handed it a job ID; *sched.Scheduler implements it.
type Scheduler interface {
	Job(id string) (sched.JobStatus, bool)
	Wait(ctx context.Context, id string) (sched.JobStatus, error)
	Cancel(id string) error
}

// ManagerConfig wires a matrix manager.
type ManagerConfig struct {
	// Scheduler is where cell jobs run.
	Scheduler Scheduler
	// Submit is the cache-aware cell submitter (the HTTP server's job
	// submission path).
	Submit SubmitFunc
	// Bound, when set, enables the progressive plan phase. Without it every
	// cell runs exact regardless of the run's objectives.
	Bound BoundFunc
	// Concurrency bounds how many cells are in flight per run; default 4.
	Concurrency int
}

// RunSpec describes one matrix run; it is also the POST /matrix request body.
// Exactly one of Datasets (symmetric) or SetA+SetB (bipartite) must be set.
type RunSpec struct {
	Datasets []string `json:"datasets,omitempty"`
	SetA     []string `json:"set_a,omitempty"`
	SetB     []string `json:"set_b,omitempty"`
	Name     string   `json:"name,omitempty"`
	// TopK, when positive, asks only for the K highest-similarity cells;
	// the rest may finish `bounded` (elided, with a sound upper bound).
	TopK int `json:"top_k,omitempty"`
	// MinSimilarity, in [0,1], statically skips cells whose bound falls
	// below it.
	MinSimilarity float64 `json:"min_similarity,omitempty"`
	// Tenant is the run's accounting identity: every owned cell job is
	// submitted (batch band) and quota-charged under it. Set by the server
	// from the request's credentials, never from the body.
	Tenant string `json:"-"`
	// Prelude carries spans the caller recorded before starting the run —
	// e.g. cluster pulls making the datasets resident on the coordinator.
	// Its per-stage totals fold into the run's plan_trace rollup.
	Prelude *trace.Trace `json:"-"`
}

// MaxAxis caps each axis; the cell count grows quadratically and 16 datasets
// already mean 120 pairwise jobs.
const MaxAxis = 16

// Validate checks the spec without touching a store: axis shape, the axis
// cap, ID syntax, duplicates within one axis (a duplicated dataset would make
// two cells aliases of each other), and the objectives' ranges.
func (sp RunSpec) Validate() error {
	bipartite := len(sp.SetA) > 0 || len(sp.SetB) > 0
	type axis struct {
		field string
		ids   []string
	}
	axes := []axis{{"datasets", sp.Datasets}}
	switch {
	case bipartite && len(sp.Datasets) > 0:
		return errors.New("datasets and set_a/set_b are mutually exclusive")
	case bipartite:
		if len(sp.SetA) == 0 || len(sp.SetB) == 0 {
			return errors.New("a bipartite matrix needs both set_a and set_b")
		}
		axes = []axis{{"set_a", sp.SetA}, {"set_b", sp.SetB}}
	case len(sp.Datasets) < 2:
		return fmt.Errorf("a matrix needs at least 2 datasets, got %d", len(sp.Datasets))
	}
	for _, ax := range axes {
		if len(ax.ids) > MaxAxis {
			return fmt.Errorf("at most %d %s per matrix", MaxAxis, ax.field)
		}
		seen := make(map[string]struct{}, len(ax.ids))
		for i, id := range ax.ids {
			if !store.ValidateID(id) {
				return fmt.Errorf("%s[%d] %q is not a content hash (64 lowercase hex digits)", ax.field, i, id)
			}
			if _, dup := seen[id]; dup {
				return fmt.Errorf("%s[%d] %s listed twice", ax.field, i, id)
			}
			seen[id] = struct{}{}
		}
	}
	if sp.TopK < 0 {
		return fmt.Errorf("top_k %d is negative", sp.TopK)
	}
	if sp.MinSimilarity < 0 || sp.MinSimilarity > 1 {
		return fmt.Errorf("min_similarity %v outside [0, 1]", sp.MinSimilarity)
	}
	return nil
}

// progressive reports whether the spec carries an objective that permits
// eliding cells. A plain run (no objective) always computes every cell, so
// pre-progressive clients see bit-identical behavior.
func (sp RunSpec) progressive() bool { return sp.TopK > 0 || sp.MinSimilarity > 0 }

// Errors returned by the manager API.
var (
	ErrNoRun       = fmt.Errorf("compare: no such matrix run (finished runs past the last %d are forgotten; resubmit the matrix to get its cells from cache)", keepFinishedRuns)
	ErrRunTerminal = errors.New("compare: matrix run already finished")
	ErrClosed      = errors.New("compare: matrix manager closed")
	// Cell-level errors, surfaced by GET /matrix/{id}/cells/{i}/{j}.
	ErrNoCell        = errors.New("compare: no such matrix cell")
	ErrCellSelf      = errors.New("compare: diagonal self cell is never computed")
	ErrCellNotElided = errors.New("compare: cell was not elided")
	ErrCellBusy      = errors.New("compare: cell is already being computed")
	ErrRunRunning    = errors.New("compare: matrix run still running; upgrade elided cells once it finishes")
)

const keepFinishedRuns = 64 // finished runs a manager remembers

// Manager owns the matrix runs of one service instance.
type Manager struct {
	cfg ManagerConfig

	mu       sync.Mutex
	runs     map[string]*Run
	finished []string // IDs of finished runs still in runs, oldest first
	closed   bool

	nextID int64
}

// NewManager creates a matrix manager.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	return &Manager{cfg: cfg, runs: make(map[string]*Run)}
}

// StartSpec plans and launches a run. The spec is validated here; the
// caller is expected to have verified the IDs exist. release, if non-nil, is
// invoked exactly once when the run reaches a terminal state (the server
// parks its dataset pins there); it is NOT invoked when StartSpec itself
// fails.
func (m *Manager) StartSpec(spec RunSpec, release func()) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	bipartite := len(spec.SetA) > 0
	rows, cols := spec.Datasets, spec.Datasets
	if bipartite {
		rows, cols = spec.SetA, spec.SetB
	}

	ctx, cancel := context.WithCancel(context.Background())
	r := &Run{
		m:         m,
		spec:      spec,
		bipartite: bipartite,
		rows:      append([]string(nil), rows...),
		cols:      append([]string(nil), cols...),
		created:   time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		notify:    make(chan struct{}),
		release:   release,
		state:     RunRunning,
	}
	if spec.Prelude != nil && len(spec.Prelude.Spans) > 0 {
		r.planTrace = trace.Summarize(spec.Prelude)
	}
	if bipartite {
		for i := range r.rows {
			for j := range r.cols {
				r.cells = append(r.cells, &cell{i: i, j: j, state: CellPending})
			}
		}
	} else {
		for i := 0; i < len(r.rows); i++ {
			for j := i + 1; j < len(r.cols); j++ {
				r.cells = append(r.cells, &cell{i: i, j: j, state: CellPending})
			}
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	r.id = fmt.Sprintf("mx-%06d", atomic.AddInt64(&m.nextID, 1))
	m.runs[r.id] = r
	m.mu.Unlock()

	go r.execute(m.cfg)
	return r, nil
}

// Get returns the run with the given ID.
func (m *Manager) Get(id string) (*Run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// Runs returns every run the manager remembers, in no particular order.
func (m *Manager) Runs() []*Run {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Run, 0, len(m.runs))
	for _, r := range m.runs {
		out = append(out, r)
	}
	return out
}

// Cancel cancels a running matrix: pending cells are abandoned, owned cell
// jobs are canceled.
func (m *Manager) Cancel(id string) error {
	r, ok := m.Get(id)
	if !ok {
		return ErrNoRun
	}
	return r.Cancel()
}

// Close cancels every non-terminal run; further Starts fail.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	for _, r := range m.Runs() {
		_ = r.Cancel()
	}
}

// cell is one planned pairwise comparison; guarded by its run's mutex.
type cell struct {
	i, j  int
	state string
	// jobID is the scheduler job behind the cell's latest submission (empty
	// when a cache layer answered without one); owned marks a job this run
	// submitted, as opposed to one it attached to through a result-store
	// hit or runs as a caller-driven upgrade. Both are published in the
	// critical section that publishes CellRunning, so Cancel and maybePrune
	// never see a running cell whose job they cannot find.
	jobID      string
	owned      bool
	cached     bool
	errMsg     string
	tiles      int
	unmatchedA int
	unmatchedB int
	report     *tilepass.Result // set when state == done
	// bound is the plan phase's similarity upper bound; boundSet marks it
	// computed (a run without a Bound hook plans none).
	bound    float64
	boundSet bool
	// pruned marks an in-flight cell whose job was canceled by top-k early
	// termination; its cancellation records as bounded, not canceled.
	pruned bool
	// trace is the cell job's per-stage rollup, captured at the terminal
	// snapshot. A K×K status carries K·(K−1)/2 of these, so cells keep the
	// compact summary, not the full span list (GET /jobs/{id}/trace has it).
	trace *trace.Summary
}

// Run is one in-flight or finished matrix run.
type Run struct {
	m         *Manager
	id        string
	spec      RunSpec
	bipartite bool
	rows      []string // row axis dataset IDs (set-A side of each cell)
	cols      []string // column axis dataset IDs (set-B side)
	created   time.Time
	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{}
	release   func()
	relOnce   sync.Once

	mu              sync.Mutex
	cells           []*cell
	state           string
	finished        time.Time
	cancelRequested bool
	planTrace       *trace.Summary
	// version counts observable state changes; notify is closed and replaced
	// on each bump, waking WaitChange long-polls.
	version int64
	notify  chan struct{}
}

// ID returns the run's manager-assigned ID.
func (r *Run) ID() string { return r.id }

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// bumpLocked registers an observable state change; r.mu must be held.
func (r *Run) bumpLocked() {
	r.version++
	close(r.notify)
	r.notify = make(chan struct{})
}

// WaitChange blocks until the run's version exceeds since, the run is
// terminal, or ctx expires, then returns a fresh snapshot. On ctx expiry the
// snapshot is still returned alongside the context error, so long-poll
// handlers can answer with the current state rather than nothing.
func (r *Run) WaitChange(ctx context.Context, since int64) (Status, error) {
	for {
		r.mu.Lock()
		if r.version > since || r.state != RunRunning {
			r.mu.Unlock()
			return r.Status(), nil
		}
		ch := r.notify
		r.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return r.Status(), ctx.Err()
		}
	}
}

// Cancel stops the run: no further cells are submitted and owned cell jobs
// are canceled; shared jobs keep running for their other consumers.
// Idempotent on running runs; terminal runs report ErrRunTerminal.
func (r *Run) Cancel() error {
	r.mu.Lock()
	if r.state != RunRunning {
		r.mu.Unlock()
		return ErrRunTerminal
	}
	r.cancelRequested = true
	// Under the lock, so a cell that publishes its job afterwards finds both
	// set: it cancels the job itself (submitAndWait) and, with the context
	// already done, records the cancellation instead of resubmitting.
	r.cancel()
	var victims []string
	for _, c := range r.cells {
		if c.state == CellRunning && c.owned {
			victims = append(victims, c.jobID)
		}
	}
	r.mu.Unlock()
	for _, id := range victims {
		_ = r.m.cfg.Scheduler.Cancel(id) // already terminal is fine
	}
	return nil
}

// execute drives the run to completion: plan bounds, dispatch cells in
// descending-bound order with bounded concurrency, wait, finalize.
func (r *Run) execute(cfg ManagerConfig) {
	order := r.plan(cfg)
	sem := make(chan struct{}, cfg.Concurrency)
	var wg sync.WaitGroup
	for _, c := range order {
		if r.ctx.Err() != nil {
			r.setCellCanceled(c, "matrix canceled before cell submission")
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-r.ctx.Done():
			r.setCellCanceled(c, "matrix canceled before cell submission")
			continue
		}
		// Decide at the last moment, with every earlier exact result in
		// hand: cells the objective already excludes finish without a job.
		if r.elide(c) {
			<-sem
			continue
		}
		wg.Add(1)
		go func(c *cell) {
			defer wg.Done()
			defer func() { <-sem }()
			r.runCell(c)
		}(c)
	}
	wg.Wait()
	r.finalize()
}

// plan computes per-cell bounds, records them as `bound` stages in the
// run-level trace, and returns the cells in dispatch order: bound descending,
// plan order breaking ties (which keeps non-progressive runs in their
// original, pre-progressive submission order).
func (r *Run) plan(cfg ManagerConfig) []*cell {
	if cfg.Bound == nil {
		return r.cells
	}
	rec := trace.NewRecorder()
	for _, c := range r.cells {
		if r.ctx.Err() != nil {
			break
		}
		idA, idB := r.rows[c.i], r.cols[c.j]
		start := time.Now()
		cb, err := cfg.Bound(idA, idB)
		rec.Add("bound", fmt.Sprintf("%.8s×%.8s", idA, idB), start, time.Now())
		r.mu.Lock()
		if err != nil {
			// A bound failure never fails the cell — the trivial bound is
			// always sound, the cell just can't be elided.
			c.bound, c.boundSet = 1, true
		} else {
			c.bound, c.boundSet = cb.Bound, true
			c.tiles = cb.Tiles
		}
		r.mu.Unlock()
	}
	rec.Finish()

	sum := trace.Summarize(rec.Snapshot())
	r.mu.Lock()
	// Fold in the caller's prelude (cluster pulls recorded before the run
	// started) rather than overwriting it: plan_trace is the whole cost of
	// getting the run ready to dispatch.
	if prev := r.planTrace; prev != nil {
		sum.TotalMs += prev.TotalMs
		for k, v := range prev.Stages {
			sum.Stages[k] += v
		}
	}
	r.planTrace = sum
	order := make([]*cell, len(r.cells))
	copy(order, r.cells)
	sort.SliceStable(order, func(a, b int) bool { return order[a].bound > order[b].bound })
	r.bumpLocked()
	r.mu.Unlock()
	return order
}

// elide finishes a cell without a job when the run's objective already
// excludes it; it reports whether it did. Only sound bounds elide.
func (r *Run) elide(c *cell) bool {
	if !r.spec.progressive() {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !c.boundSet {
		return false
	}
	if c.bound == 0 || c.bound < r.spec.MinSimilarity {
		c.state = CellSkipped
		c.errMsg = ""
		r.bumpLocked()
		return true
	}
	if r.spec.TopK > 0 {
		if kth, n := r.kthBestLocked(); n >= r.spec.TopK && c.bound < kth {
			c.state = CellBounded
			r.bumpLocked()
			return true
		}
	}
	return false
}

// kthBestLocked returns the k-th highest exact similarity so far and the
// number of exact results; r.mu must be held.
func (r *Run) kthBestLocked() (float64, int) {
	var sims []float64
	for _, c := range r.cells {
		if c.state == CellDone && c.report != nil {
			sims = append(sims, c.report.Similarity)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sims)))
	if len(sims) < r.spec.TopK {
		return 0, len(sims)
	}
	return sims[r.spec.TopK-1], len(sims)
}

// maybePrune cancels in-flight cells a fresh exact result has excluded from
// the top-k answer: their bound is strictly below the k-th best exact
// similarity, so they cannot enter the answer no matter how they finish.
// Only owned jobs are canceled (shared cache-attachments keep running for
// their other consumers and simply finish exact).
func (r *Run) maybePrune() {
	if r.spec.TopK <= 0 {
		return
	}
	r.mu.Lock()
	kth, n := r.kthBestLocked()
	var victims []string
	if n >= r.spec.TopK {
		for _, c := range r.cells {
			if c.state == CellRunning && c.owned && c.boundSet && c.bound < kth && !c.pruned {
				c.pruned = true
				victims = append(victims, c.jobID)
			}
		}
	}
	r.mu.Unlock()
	for _, id := range victims {
		_ = r.m.cfg.Scheduler.Cancel(id)
	}
}

// maxCellAttempts bounds resubmissions of a cell whose job was canceled
// out from under the run (an attached shared job canceled by its owning
// run, or a direct DELETE /jobs/{id}).
const maxCellAttempts = 3

// submitAndWait submits the cell once through the cache-aware submitter,
// records the pairing it reports, publishes the job on the cell and waits on
// ctx for its terminal snapshot. own says whether a freshly submitted job
// belongs to the run's cancellation domain; a cache hit attaches to a job
// some other submission created and is never owned, because cancelling this
// matrix must not cancel a job others depend on. A cache layer that answers
// without a job comes back as a synthesized Done snapshot.
func (r *Run) submitAndWait(ctx context.Context, c *cell, own bool) (sched.JobStatus, error) {
	out, err := r.m.cfg.Submit(r.rows[c.i], r.cols[c.j], r.spec.Tenant)
	if err != nil {
		return sched.JobStatus{}, err
	}
	r.mu.Lock()
	c.cached = out.Cached
	c.unmatchedA = out.UnmatchedA
	c.unmatchedB = out.UnmatchedB
	if out.Tiles != 0 {
		c.tiles = out.Tiles
	}
	c.jobID = out.JobID
	c.owned = own && !out.Cached && out.Report == nil
	if out.Report != nil {
		r.mu.Unlock()
		return sched.JobStatus{State: sched.Done, Report: *out.Report, Trace: out.Trace}, nil
	}
	c.state = CellRunning
	// Run.Cancel sweeps the cell table once; a job published after the sweep
	// is canceled here instead (the run's context is already done by then).
	missed := c.owned && r.cancelRequested
	r.bumpLocked()
	r.mu.Unlock()
	if missed {
		_ = r.m.cfg.Scheduler.Cancel(out.JobID)
	}
	return r.m.cfg.Scheduler.Wait(ctx, out.JobID)
}

// runCell submits one planned cell and tracks its job to a terminal state.
func (r *Run) runCell(c *cell) {
	for attempt := 1; ; attempt++ {
		st, err := r.submitAndWait(r.ctx, c, true)
		switch {
		case err != nil && r.ctx.Err() == nil:
			r.mu.Lock()
			c.state = CellFailed
			c.errMsg = err.Error()
			r.bumpLocked()
			r.mu.Unlock()
			return
		case err != nil:
			// Run canceled, before the submit or while waiting. Cancel already
			// reached the job if it is owned; record the freshest snapshot
			// without blocking on in-flight tiles.
			r.mu.Lock()
			jobID := c.jobID
			r.mu.Unlock()
			if snap, ok := r.m.cfg.Scheduler.Job(jobID); ok && snap.State.Terminal() {
				r.recordFinal(c, snap)
			} else {
				r.setCellCanceled(c, "matrix canceled")
			}
			return
		}
		if st.State == sched.Canceled && r.ctx.Err() == nil && attempt < maxCellAttempts {
			r.mu.Lock()
			pruned := c.pruned
			r.mu.Unlock()
			if !pruned {
				// The job was canceled but neither this run nor its objective
				// did it: the cell attached to another run's job that got
				// canceled, or someone canceled the job directly. The cache
				// evicts canceled jobs, so a resubmit computes the cell fresh
				// instead of poisoning the whole run with a cancellation it
				// never asked for; the fresh job replaces the dead attempt on
				// the cell.
				continue
			}
		}
		r.recordFinal(c, st)
		return
	}
}

// recordFinal maps a terminal job snapshot onto the cell.
func (r *Run) recordFinal(c *cell, st sched.JobStatus) CellView {
	r.mu.Lock()
	c.trace = trace.Summarize(st.Trace)
	switch st.State {
	case sched.Done:
		c.state = CellDone
		rep := st.Report
		c.report = &rep
		if c.tiles == 0 {
			c.tiles = st.Tiles
		}
	case sched.Failed:
		c.state = CellFailed
		c.errMsg = st.Error
	default:
		c.state = CellCanceled
		if c.pruned && !r.cancelRequested {
			// Top-k early termination canceled this job on purpose: the cell
			// is excluded from the answer, not a casualty.
			c.state = CellBounded
		}
	}
	v := r.viewLocked(c)
	r.bumpLocked()
	r.mu.Unlock()
	if v.State == CellDone {
		r.maybePrune()
	}
	return v
}

func (r *Run) setCellCanceled(c *cell, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.state = CellCanceled
	if c.errMsg == "" {
		c.errMsg = reason
	}
	r.bumpLocked()
}

// finalize computes the run's terminal state from its cells. Skipped and
// bounded cells are successful outcomes — the objective excluded them.
func (r *Run) finalize() {
	r.mu.Lock()
	state := RunDone
	for _, c := range r.cells {
		switch c.state {
		case CellFailed, CellCanceled:
			state = RunFailed
		}
	}
	if r.cancelRequested {
		state = RunCanceled
	}
	r.state = state
	r.finished = time.Now()
	r.bumpLocked()
	r.mu.Unlock()
	r.relOnce.Do(func() {
		if r.release != nil {
			r.release()
		}
	})
	// Retire the run; its cells' answers outlive it in the result table.
	m := r.m
	m.mu.Lock()
	m.finished = append(m.finished, r.id)
	if len(m.finished) > keepFinishedRuns {
		delete(m.runs, m.finished[0])
		m.finished = m.finished[1:]
	}
	m.mu.Unlock()
	close(r.done)
}

// CellView is the wire form of one matrix cell.
type CellView struct {
	State      string  `json:"state"`
	JobID      string  `json:"job_id,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	Error      string  `json:"error,omitempty"`
	Tiles      int     `json:"tiles,omitempty"`
	UnmatchedA int     `json:"unmatched_a,omitempty"`
	UnmatchedB int     `json:"unmatched_b,omitempty"`
	Similarity float64 `json:"similarity"`
	Intersect  int     `json:"intersecting"`
	Candidates int     `json:"candidates"`
	// Bound is the plan phase's similarity upper bound, present on every
	// cell once a manager with a Bound hook (any store-backed daemon) has
	// planned it; only a progressive run elides on it. Skipped/bounded
	// cells' true similarity never exceeds it.
	Bound *float64 `json:"bound,omitempty"`
	// Trace is the cell job's per-stage duration rollup (total plus
	// milliseconds per stage name), set once the cell is terminal.
	Trace *trace.Summary `json:"trace,omitempty"`
}

// Status is a point-in-time snapshot of a matrix run: the cell grid and the
// counts over it, taken in one critical section and without asking the
// scheduler.
type Status struct {
	ID       string     `json:"id"`
	Name     string     `json:"name,omitempty"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
	// Datasets is the axis of a symmetric run; SetA/SetB the axes of a
	// bipartite run (rows × columns).
	Datasets []string `json:"datasets,omitempty"`
	SetA     []string `json:"set_a,omitempty"`
	SetB     []string `json:"set_b,omitempty"`
	// The run's progressive objectives, echoed from the request.
	TopK          int     `json:"top_k,omitempty"`
	MinSimilarity float64 `json:"min_similarity,omitempty"`
	// Version increments on every observable change; pass it back as
	// ?since= to long-poll for the next one.
	Version int64 `json:"version"`
	// Cells is the grid. Symmetric runs: the K×K grid, diagonal marked
	// self, cell {i,j} computed once in the upper-triangle orientation
	// (dataset i's set A against dataset j's set B for i < j) and the lower
	// triangle holding a verbatim copy — including its unmatched counts,
	// which read in the computed orientation; the uncomputed reverse
	// orientation is a different comparison and is never presented as run.
	// Bipartite runs: len(SetA) rows × len(SetB) columns, every cell its
	// own oriented comparison, no mirroring.
	Cells [][]CellView `json:"cells"`
	// PlannedCells / TerminalCells track progress over the plan;
	// Exact/Skipped/Bounded break the terminal cells down by how they were
	// answered.
	PlannedCells  int `json:"planned_cells"`
	TerminalCells int `json:"terminal_cells"`
	ExactCells    int `json:"exact_cells"`
	SkippedCells  int `json:"skipped_cells,omitempty"`
	BoundedCells  int `json:"bounded_cells,omitempty"`
	// PlanTrace is the run-level plan-phase rollup: the `bound` stage plus
	// any cluster pulls the caller recorded before the run started.
	PlanTrace *trace.Summary `json:"plan_trace,omitempty"`
}

// Status snapshots the run.
func (r *Run) Status() Status {
	r.mu.Lock()
	st := Status{
		ID:            r.id,
		Name:          r.spec.Name,
		State:         r.state,
		Created:       r.created,
		TopK:          r.spec.TopK,
		MinSimilarity: r.spec.MinSimilarity,
		Version:       r.version,
		PlannedCells:  len(r.cells),
		PlanTrace:     r.planTrace,
	}
	if r.bipartite {
		st.SetA = append([]string(nil), r.rows...)
		st.SetB = append([]string(nil), r.cols...)
	} else {
		st.Datasets = append([]string(nil), r.rows...)
	}
	if !r.finished.IsZero() {
		t := r.finished
		st.Finished = &t
	}
	st.Cells = make([][]CellView, len(r.rows))
	for i := range st.Cells {
		st.Cells[i] = make([]CellView, len(r.cols))
		if !r.bipartite {
			st.Cells[i][i] = CellView{State: CellSelf}
		}
	}
	for _, c := range r.cells {
		v := r.viewLocked(c)
		switch c.state {
		case CellDone:
			st.TerminalCells++
			st.ExactCells++
		case CellFailed, CellCanceled:
			st.TerminalCells++
		case CellSkipped:
			st.TerminalCells++
			st.SkippedCells++
		case CellBounded:
			st.TerminalCells++
			st.BoundedCells++
		}
		st.Cells[c.i][c.j] = v
		if !r.bipartite {
			// The mirror is a verbatim copy of the computed cell: swapping
			// the unmatched counts would present the reverse orientation — a
			// comparison that was never run — as computed.
			st.Cells[c.j][c.i] = v
		}
	}
	r.mu.Unlock()
	return st
}

// viewLocked builds the wire view of one cell; r.mu must be held.
func (r *Run) viewLocked(c *cell) CellView {
	v := CellView{
		State:      c.state,
		JobID:      c.jobID,
		Cached:     c.cached,
		Error:      c.errMsg,
		Tiles:      c.tiles,
		UnmatchedA: c.unmatchedA,
		UnmatchedB: c.unmatchedB,
		Trace:      c.trace,
	}
	if c.boundSet {
		b := c.bound
		v.Bound = &b
	}
	if c.report != nil {
		v.Similarity = c.report.Similarity
		v.Intersect = c.report.Intersecting
		v.Candidates = c.report.Candidates
	}
	return v
}

// cellAt resolves grid coordinates to the planned cell computing them. In a
// symmetric run a mirror coordinate (i > j) resolves to its upper-triangle
// cell and the diagonal reports ErrCellSelf. rows, cols and the cells slice
// are immutable after StartSpec, so resolution itself needs no lock.
func (r *Run) cellAt(i, j int) (*cell, error) {
	if i < 0 || i >= len(r.rows) || j < 0 || j >= len(r.cols) {
		return nil, fmt.Errorf("%w: (%d,%d) outside %d×%d grid", ErrNoCell, i, j, len(r.rows), len(r.cols))
	}
	if !r.bipartite {
		if i == j {
			return nil, ErrCellSelf
		}
		if i > j {
			i, j = j, i
		}
	}
	for _, c := range r.cells {
		if c.i == i && c.j == j {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: (%d,%d)", ErrNoCell, i, j)
}

// Cell returns the wire view of one cell by grid coordinates. The diagonal of
// a symmetric run answers its placeholder view rather than an error.
func (r *Run) Cell(i, j int) (CellView, error) {
	c, err := r.cellAt(i, j)
	if errors.Is(err, ErrCellSelf) {
		return CellView{State: CellSelf}, nil
	}
	if err != nil {
		return CellView{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewLocked(c), nil
}

// UpgradeCell recomputes an elided (`skipped` or `bounded`) cell exactly, on
// demand, and patches it into the run as `done` — the lazy complement of
// progressive execution: the objective elides cheaply up front, and a caller
// who later needs one specific elided answer pays for exactly that cell. The
// upgrade goes through the same submit-and-wait path as planned cells but
// outside the run's concurrency gate and cancellation domain: it is
// caller-driven work on a finished run, so its job is never owned — neither
// Cancel nor the objective that elided the cell in the first place
// (maybePrune) touches it. An elided
// cell of a still-running run reports ErrRunRunning: the run's finish (its
// state, its pins, its waiters' wake-up) must not precede a cell it does not
// wait for. Already-exact cells return their view idempotently; other states
// report ErrCellBusy or ErrCellNotElided alongside the current view. A failed
// upgrade leaves the cell as it was.
func (r *Run) UpgradeCell(i, j int) (CellView, error) {
	c, err := r.cellAt(i, j)
	if errors.Is(err, ErrCellSelf) {
		return CellView{State: CellSelf}, err
	}
	if err != nil {
		return CellView{}, err
	}
	r.mu.Lock()
	prev := *c
	if prev.state != CellSkipped && prev.state != CellBounded {
		v := r.viewLocked(c)
		r.mu.Unlock()
		switch prev.state {
		case CellDone:
			return v, nil
		case CellRunning:
			return v, ErrCellBusy
		}
		return v, fmt.Errorf("%w (cell is %s)", ErrCellNotElided, prev.state)
	}
	if r.state == RunRunning {
		v := r.viewLocked(c)
		r.mu.Unlock()
		return v, ErrRunRunning
	}
	c.state, c.owned, c.errMsg = CellRunning, false, ""
	r.bumpLocked()
	r.mu.Unlock()

	// Wait with a background context: the run's own ctx is canceled once the
	// run finishes.
	st, err := r.submitAndWait(context.Background(), c, false)
	if err == nil && st.State != sched.Done {
		msg := st.Error
		if msg == "" {
			msg = "job ended " + st.State.String()
		}
		err = errors.New(msg)
	}
	if err != nil {
		r.mu.Lock()
		*c = prev
		r.bumpLocked()
		r.mu.Unlock()
		return CellView{}, fmt.Errorf("compare: exact upgrade: %w", err)
	}
	return r.recordFinal(c, st), nil
}

// SortRunsByID orders run snapshots deterministically (used by listings).
func SortRunsByID(runs []Status) {
	sort.Slice(runs, func(i, j int) bool { return runs[i].ID < runs[j].ID })
}
