package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/tilepass"
)

func testTasks(t *testing.T, tiles int) []tilepass.PolyTask {
	t.Helper()
	spec := pathology.Representative()
	spec.Tiles = tiles
	d := pathology.Generate(spec)
	tasks := make([]tilepass.PolyTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		tasks[i] = tilepass.PolyTask{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	return tasks
}

// memSource serves decoded in-memory tiles as a TaskSource.
type memSource []tilepass.PolyTask

func (m memSource) Len() int                                  { return len(m) }
func (m memSource) PolyTask(i int) (tilepass.PolyTask, error) { return m[i], nil }

// pairedSource serves tasks, but holds the first of its tile reads until a
// second has begun, so two workers each take at least one tile.
type pairedSource struct {
	tasks []tilepass.PolyTask
	calls atomic.Int32
	both  chan struct{}
}

func (p *pairedSource) Len() int { return len(p.tasks) }
func (p *pairedSource) PolyTask(i int) (tilepass.PolyTask, error) {
	switch p.calls.Add(1) {
	case 1:
		select {
		case <-p.both:
		case <-time.After(10 * time.Second):
			return tilepass.PolyTask{}, errors.New("no second worker took a tile")
		}
	case 2:
		close(p.both)
	}
	return p.tasks[i], nil
}

// TestTilesSpreadOverWorkers: a job's tiles spread over two GPU workers give
// the report of one direct pipeline run, bit for bit, and both workers'
// devices did work.
func TestTilesSpreadOverWorkers(t *testing.T) {
	tasks := testTasks(t, 6)
	direct, err := pipeline.RunParsed(tasks, pipeline.Config{Devices: []*gpu.Device{gpu.NewDevice(gpu.GTX580())}})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	s := New(Config{Devices: 2})
	defer s.Close()
	id, err := s.SubmitJob(&pairedSource{tasks: tasks, both: make(chan struct{})}, JobOpts{Name: "rep"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != Done {
		t.Fatalf("job state = %v (err %q), want Done", st.State, st.Error)
	}
	if !reflect.DeepEqual(st.DeviceIDs, []string{"gpu0", "gpu1"}) {
		t.Fatalf("job ran on workers %v, want [gpu0 gpu1]", st.DeviceIDs)
	}
	for _, d := range s.DeviceStats() {
		if d.Tiles == 0 || d.Launches == 0 {
			t.Errorf("worker %s idle (tiles=%d launches=%d), want both busy", d.ID, d.Tiles, d.Launches)
		}
	}
	if math.Float64bits(st.Report.Similarity) != math.Float64bits(direct.Similarity) ||
		st.Report.Intersecting != direct.Intersecting || st.Report.Candidates != direct.Candidates {
		t.Errorf("report (%v, %d, %d) != direct (%v, %d, %d)", st.Report.Similarity, st.Report.Intersecting,
			st.Report.Candidates, direct.Similarity, direct.Intersecting, direct.Candidates)
	}
	if st.Report.Stats.TilesProcessed != len(tasks) {
		t.Errorf("tiles processed = %d, want %d", st.Report.Stats.TilesProcessed, len(tasks))
	}
}

// TestReportCountersArePerJob guards against leaking the pool devices'
// cumulative counters into job reports: each job's counters start at zero,
// so a job reports exactly the launches and busy time the devices accrued
// while it ran — never the first job's on top. (How many launches a job
// takes depends on steal timing between the devices, so two identical jobs
// need not report the same count.)
func TestReportCountersArePerJob(t *testing.T) {
	tasks := testTasks(t, 4)
	s := New(Config{Devices: 2})
	defer s.Close()
	var launchesBefore int64
	var busyBefore float64
	for i := 0; i < 2; i++ {
		id, err := s.SubmitJob(memSource(tasks), JobOpts{Name: "again"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		st, err := s.Wait(context.Background(), id)
		if err != nil || st.State != Done {
			t.Fatalf("Wait = %+v, %v", st.State, err)
		}
		var launches int64
		var busy float64
		for _, d := range s.DeviceStats() {
			launches += d.Launches
			busy += d.BusySeconds
		}
		got := st.Report.Stats
		if got.KernelLaunches == 0 {
			t.Fatalf("job %d reports zero kernel launches", i)
		}
		if want := launches - launchesBefore; got.KernelLaunches != want {
			t.Errorf("job %d reports %d launches, the devices ran %d during it — cumulative device counters leaked",
				i, got.KernelLaunches, want)
		}
		if want := busy - busyBefore; math.Abs(got.DeviceSeconds-want) > 1e-9 {
			t.Errorf("job %d reports %.9f device seconds, the devices were busy %.9f during it — cumulative busy time leaked",
				i, got.DeviceSeconds, want)
		}
		launchesBefore, busyBefore = launches, busy
	}
}

func TestCPUOnlyScheduler(t *testing.T) {
	tasks := testTasks(t, 2)
	s := New(Config{Devices: 0})
	defer s.Close()
	id, err := s.SubmitJob(memSource(tasks), JobOpts{Name: "cpu"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != Done {
		t.Fatalf("state = %v (err %q), want Done", st.State, st.Error)
	}
	if st.Report.Stats.PairsOnGPU != 0 {
		t.Errorf("CPU-only job reports %d GPU pairs", st.Report.Stats.PairsOnGPU)
	}
	if st.Report.Similarity <= 0 {
		t.Errorf("similarity = %v, want > 0", st.Report.Similarity)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Devices: 1})
	if _, err := s.SubmitJob(memSource(nil), JobOpts{Name: "empty"}); err != ErrEmptyJob {
		t.Errorf("Submit(nil) err = %v, want ErrEmptyJob", err)
	}
	s.Close()
	if _, err := s.SubmitJob(memSource(testTasks(t, 1)), JobOpts{Name: "late"}); err != ErrClosed {
		t.Errorf("Submit after Close err = %v, want ErrClosed", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// One device, one worker: the second job stays queued while a gated
	// first job holds the worker, so the cancel always finds it queued.
	s := New(Config{Devices: 1})
	defer s.Close()
	first, release := startFiller(t, s)
	var once sync.Once
	defer once.Do(release)
	second, err := s.SubmitJob(memSource(testTasks(t, 2)), JobOpts{Name: "victim"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Cancel(second); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st, err := s.Wait(context.Background(), second)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != Canceled {
		t.Fatalf("canceled job state = %v, want Canceled", st.State)
	}
	once.Do(release)
	if fst, err := s.Wait(context.Background(), first); err != nil || fst.State != Done {
		t.Fatalf("first job state = %v err = %v, want Done", fst.State, err)
	}
	if err := s.Cancel(second); err != ErrTerminal {
		t.Errorf("Cancel(terminal) err = %v, want ErrTerminal", err)
	}
	if err := s.Cancel("job-999999"); err != ErrNotFound {
		t.Errorf("Cancel(unknown) err = %v, want ErrNotFound", err)
	}
}

func TestJobsListingOrder(t *testing.T) {
	s := New(Config{Devices: 1})
	defer s.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.SubmitJob(memSource(testTasks(t, 1)), JobOpts{Name: "j"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
	}
	jobs := s.Jobs()
	if len(jobs) != len(ids) {
		t.Fatalf("Jobs() returned %d entries, want %d", len(jobs), len(ids))
	}
	for i, st := range jobs {
		if st.ID != ids[i] {
			t.Errorf("Jobs()[%d].ID = %s, want %s (submission order)", i, st.ID, ids[i])
		}
	}
}

// TestFinishedJobsForgotten is the forgetting rule: past keepFinishedJobs
// finished jobs the oldest leaves the scheduler, while a running job and a
// queued one stay however long the flood of finished work runs.
func TestFinishedJobsForgotten(t *testing.T) {
	// Two workers, each holding one of the held job's two gated tiles, so
	// the batch job is submitted with no worker free to start it. Nothing
	// keeps a free worker from a batch job while the interactive band is
	// empty, so it waits out the flood outside its band's queue.
	s := New(Config{Devices: 2})
	defer s.Close()
	tiny := testTasks(t, 1)
	tiny[0].A, tiny[0].B = tiny[0].A[:1], tiny[0].B[:1]
	gate := &tileGates{task: tiny[0], gates: []chan struct{}{make(chan struct{}), make(chan struct{})}}
	var once sync.Once
	release := func() { once.Do(func() { close(gate.gates[0]) }) }
	defer release()
	running, err := s.SubmitJob(gate, JobOpts{Name: "held"})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if gate.entered.Load() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the held job's tiles never both started")
		}
	}
	queued, err := s.SubmitJob(memSource(tiny), JobOpts{Name: "behind", Band: BandBatch})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	parked := s.bands[BandBatch]
	s.bands[BandBatch] = nil
	s.mu.Unlock()
	close(gate.gates[1])

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const forgotten = 100
	ids := make([]string, keepFinishedJobs+forgotten)
	for i := range ids {
		id, err := s.SubmitJob(memSource(tiny), JobOpts{Name: "flood"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		st, err := s.Wait(ctx, id)
		if err != nil || st.ID != id || st.State != Done {
			t.Fatalf("Wait(%s) = %s %q (%v), want its own done snapshot", id, st.State, st.ID, err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		_, ok := s.Job(id)
		if i < forgotten {
			if ok {
				t.Fatalf("job %d of %d (%s) still known past the last %d finished", i, len(ids), id, keepFinishedJobs)
			}
			if err := s.Cancel(id); err != ErrNotFound {
				t.Fatalf("Cancel(forgotten %s) = %v, want ErrNotFound", id, err)
			}
		} else if !ok {
			t.Fatalf("job %d (%s) forgotten inside the last %d finished", i, id, keepFinishedJobs)
		}
	}
	if st, _ := s.Job(running); st.State != Running {
		t.Fatalf("held job is %s after the flood, want running", st.State)
	}
	if st, _ := s.Job(queued); st.State != Queued {
		t.Fatalf("queued job is %s after the flood, want queued", st.State)
	}
	checkJobs := func(want []string) {
		t.Helper()
		jobs := s.Jobs()
		if len(jobs) != len(want) {
			t.Fatalf("Jobs() lists %d jobs, want %d", len(jobs), len(want))
		}
		for i, st := range jobs {
			if st.ID != want[i] {
				t.Fatalf("Jobs()[%d] = %s, want %s (submission order)", i, st.ID, want[i])
			}
		}
	}
	checkJobs(append([]string{running, queued}, ids[forgotten:]...))

	// Once the two live jobs finish, they push the two oldest finished out.
	s.mu.Lock()
	s.bands[BandBatch] = append(s.bands[BandBatch], parked...)
	s.qcond.Broadcast()
	s.mu.Unlock()
	release()
	for _, id := range []string{running, queued} {
		if st, err := s.Wait(ctx, id); err != nil || st.ID != id || st.State != Done {
			t.Fatalf("Wait(%s) = %s %q (%v), want done", id, st.State, st.ID, err)
		}
	}
	checkJobs(append([]string{running, queued}, ids[forgotten+2:]...))
}

// tileGates serves one tile per gate, each read held until its gate
// closes.
type tileGates struct {
	task    tilepass.PolyTask
	gates   []chan struct{}
	entered atomic.Int32
}

func (g *tileGates) Len() int { return len(g.gates) }
func (g *tileGates) PolyTask(i int) (tilepass.PolyTask, error) {
	g.entered.Add(1)
	<-g.gates[i]
	return g.task, nil
}

// heldSource serves tasks, but its reads block until release is closed;
// started is closed at the first read.
type heldSource struct {
	tasks   []tilepass.PolyTask
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *heldSource) Len() int { return len(s.tasks) }
func (s *heldSource) PolyTask(i int) (tilepass.PolyTask, error) {
	s.once.Do(func() { close(s.started) })
	<-s.release
	return s.tasks[i], nil
}

// TestJobsNotBlockedBySlowMaterialize: while a worker's tile read stalls,
// the observability surface (Jobs, and through it /jobs, /metrics,
// /healthz) still answers — tiles are read outside the scheduler lock.
func TestJobsNotBlockedBySlowMaterialize(t *testing.T) {
	s := New(Config{Devices: 1})
	defer s.Close()
	src := &heldSource{tasks: testTasks(t, 2), started: make(chan struct{}), release: make(chan struct{})}
	id, err := s.SubmitJob(src, JobOpts{Name: "slow-read"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	select {
	case <-src.started:
	case <-time.After(10 * time.Second):
		t.Fatal("materialize never started")
	}
	got := make(chan []JobStatus, 1)
	go func() { got <- s.Jobs() }()
	select {
	case jobs := <-got:
		if len(jobs) != 1 || jobs[0].ID != id {
			t.Fatalf("Jobs() = %+v, want the one submitted job", jobs)
		}
		if jobs[0].State != Running {
			t.Errorf("job state during its first tile read = %v, want Running", jobs[0].State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Jobs() blocked while a slow source materialized a tile — PolyTask runs under the scheduler lock")
	}
	close(src.release)
	st, err := s.Wait(context.Background(), id)
	if err != nil || st.State != Done {
		t.Fatalf("job after release: state=%v err=%v, want Done", st.State, err)
	}
}

// TestCancelDuringMaterialize: a job canceled while a worker reads its
// first tile takes no further tile and ends Canceled, with no report, once
// that read returns.
func TestCancelDuringMaterialize(t *testing.T) {
	s := New(Config{Devices: 1})
	defer s.Close()
	src := &heldSource{tasks: testTasks(t, 2), started: make(chan struct{}), release: make(chan struct{})}
	id, err := s.SubmitJob(src, JobOpts{Name: "cancel-read"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	select {
	case <-src.started:
	case <-time.After(10 * time.Second):
		t.Fatal("materialize never started")
	}
	if err := s.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st, _ := s.Job(id); st.State != Running {
		t.Fatalf("state with a tile in flight = %v, want Running until it returns", st.State)
	}
	close(src.release)
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != Canceled {
		t.Fatalf("state = %v, want Canceled", st.State)
	}
	if st.Report.Stats.TilesProcessed != 0 {
		t.Errorf("canceled job reports %d tiles, want no report", st.Report.Stats.TilesProcessed)
	}
	if n := s.DeviceStats()[0].Tiles; n > 1 {
		t.Errorf("the worker ran %d of the canceled job's tiles, want at most the one in flight", n)
	}
}

// delaySource serves n copies of one tile, each read taking delay: a job
// whose tile time is known.
type delaySource struct {
	task  tilepass.PolyTask
	n     int
	delay time.Duration
}

func (d delaySource) Len() int { return d.n }
func (d delaySource) PolyTask(int) (tilepass.PolyTask, error) {
	time.Sleep(d.delay)
	return d.task, nil
}

// tinyTask is a one-polygon-a-side tile, so a tile's time is its read.
func tinyTask(t *testing.T) tilepass.PolyTask {
	task := testTasks(t, 1)[0]
	task.A, task.B = task.A[:1], task.B[:1]
	return task
}

// waitRunning polls until job id is running.
func waitRunning(t *testing.T, s *Scheduler, id string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := s.Job(id); st.State == Running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
	}
}

// TestInteractiveStartsWithinTiles: on the default config, an interactive
// job submitted behind running and queued batch jobs starts within a few
// tile times — as soon as a worker returns a tile — not after a batch job.
func TestInteractiveStartsWithinTiles(t *testing.T) {
	const tile = 20 * time.Millisecond
	s := New(Config{})
	defer s.Close()
	batch := delaySource{task: tinyTask(t), n: 30, delay: tile}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.SubmitJob(batch, JobOpts{Name: "batch", Band: BandBatch})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	defer func() {
		for _, id := range ids {
			s.Cancel(id)
		}
	}()
	waitRunning(t, s, ids[0])
	time.Sleep(tile)
	id, err := s.SubmitJob(delaySource{task: tinyTask(t), n: 1, delay: tile}, JobOpts{Name: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil || st.State != Done {
		t.Fatalf("probe ended %v (%v)", st.State, err)
	}
	if wait := st.Started.Sub(st.Submitted); wait > 5*tile {
		t.Fatalf("interactive job waited %v behind batch jobs of %v tiles, want at most 5 tile times", wait, tile)
	}
}

// concurrencySource serves n copies of one tile, each read taking delay, and
// records the most reads it saw in flight at once.
type concurrencySource struct {
	task         tilepass.PolyTask
	n            int
	delay        time.Duration
	reading, max atomic.Int32
}

func (c *concurrencySource) Len() int { return c.n }
func (c *concurrencySource) PolyTask(int) (tilepass.PolyTask, error) {
	n := c.reading.Add(1)
	defer c.reading.Add(-1)
	for m := c.max.Load(); n > m && !c.max.CompareAndSwap(m, n); m = c.max.Load() {
	}
	time.Sleep(c.delay)
	return c.task, nil
}

// TestBatchLeavesACore: batch tiles in flight stay below the core count
// even with idle workers, and an interactive job takes a worker they leave.
func TestBatchLeavesACore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	s := New(Config{Workers: 4})
	defer s.Close()
	batch := &concurrencySource{task: tinyTask(t), n: 12, delay: 5 * time.Millisecond}
	id, err := s.SubmitJob(batch, JobOpts{Name: "batch", Band: BandBatch})
	if err != nil {
		t.Fatal(err)
	}
	probe := &concurrencySource{task: tinyTask(t), n: 4, delay: 5 * time.Millisecond}
	pid, err := s.SubmitJob(probe, JobOpts{Name: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{id, pid} {
		if st, err := s.Wait(context.Background(), id); err != nil || st.State != Done {
			t.Fatalf("job %s ended %v (%v)", id, st.State, err)
		}
	}
	if got := batch.max.Load(); got != 2 {
		t.Errorf("%d batch tiles in flight at most, want 2: all 3 cores but one", got)
	}
	if got := probe.max.Load(); got < 2 {
		t.Errorf("%d interactive tiles in flight at most beside the batch job, want the 2 workers it leaves", got)
	}
}

// TestCancelRunningJobWithinTiles: canceling a running many-tile job ends
// it within a few tile times: its workers finish the tiles in hand and take
// no more.
func TestCancelRunningJobWithinTiles(t *testing.T) {
	const tile = 20 * time.Millisecond
	s := New(Config{})
	defer s.Close()
	id, err := s.SubmitJob(delaySource{task: tinyTask(t), n: 100, delay: tile}, JobOpts{Name: "long"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, id)
	time.Sleep(2 * tile)
	start := time.Now()
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(context.Background(), id)
	if err != nil || st.State != Canceled {
		t.Fatalf("Wait = %v (%v), want Canceled", st.State, err)
	}
	if took := time.Since(start); took > 5*tile {
		t.Fatalf("cancel took %v to end a job of %v tiles, want at most 5 tile times", took, tile)
	}
}

// launchCounter is a source whose reads record how many of its tiles had
// been materialized without yet having been counted on a GPU: the tiles a
// job holds at once.
type launchCounter struct {
	tasks []tilepass.PolyTask
	s     *Scheduler
	reads atomic.Int64
	peak  atomic.Int64
}

func (c *launchCounter) Len() int { return len(c.tasks) }
func (c *launchCounter) PolyTask(i int) (tilepass.PolyTask, error) {
	n := c.reads.Add(1)
	for _, d := range c.s.DeviceStats() {
		n -= d.Launches
	}
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return c.tasks[i], nil
}

// TestLiveTilesBoundedByWorkers: a worker materializes a tile only when it
// has counted its last, so a job never holds more tiles than there are
// workers, however many tiles it has.
func TestLiveTilesBoundedByWorkers(t *testing.T) {
	s := New(Config{Devices: 2})
	defer s.Close()
	src := &launchCounter{tasks: testTasks(t, 8), s: s}
	id, err := s.SubmitJob(src, JobOpts{Name: "live"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(context.Background(), id); err != nil || st.State != Done {
		t.Fatalf("job ended %v (%v)", st.State, err)
	}
	var launches int64
	for _, d := range s.DeviceStats() {
		launches += d.Launches
	}
	if launches != int64(len(src.tasks)) {
		t.Fatalf("%d launches for %d tiles: a tile without pairs makes the count meaningless", launches, len(src.tasks))
	}
	if peak := src.peak.Load(); peak > 2 {
		t.Fatalf("%d tiles materialized and not yet counted at once, want at most the 2 workers", peak)
	}
}

// releaseWatch counts a source's reads in flight and records a Release that
// finds one, or a second Release. Its tiles fail from fail on.
type releaseWatch struct {
	task     tilepass.PolyTask
	n, fail  int
	inflight atomic.Int32
	released atomic.Int32
	bad      atomic.Bool
}

func (r *releaseWatch) Len() int { return r.n }
func (r *releaseWatch) PolyTask(i int) (tilepass.PolyTask, error) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	time.Sleep(time.Duration(i%4) * 50 * time.Microsecond)
	if i >= r.fail {
		return tilepass.PolyTask{}, errors.New("unreadable")
	}
	return r.task, nil
}
func (r *releaseWatch) Release() {
	if r.inflight.Load() != 0 || r.released.Add(1) != 1 {
		r.bad.Store(true)
	}
}

// TestReleaseNeverDuringPolyTask: whether a job is canceled while queued,
// between tiles or with tiles in flight, or fails on a tile, its source is
// released exactly once and never while one of its reads runs.
func TestReleaseNeverDuringPolyTask(t *testing.T) {
	s := New(Config{Workers: 3})
	defer s.Close()
	task := tinyTask(t)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 40; round++ {
		src := &releaseWatch{task: task, n: 24, fail: 24}
		if round%4 == 3 {
			src.fail = rng.Intn(24)
		}
		id, err := s.SubmitJob(src, JobOpts{Name: "watch"})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(rng.Intn(1500)) * time.Microsecond)
		s.Cancel(id)
		st, err := s.Wait(context.Background(), id)
		if err != nil || !st.State.Terminal() {
			t.Fatalf("round %d: Wait = %v (%v)", round, st.State, err)
		}
		if src.bad.Load() || src.released.Load() != 1 {
			t.Fatalf("round %d (%v): released %d times, during a read: %v", round, st.State, src.released.Load(), src.bad.Load())
		}
	}
}
