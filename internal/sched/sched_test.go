package sched

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/pathology"
	"repro/internal/pipeline"
)

func testTasks(t *testing.T, tiles int) []pipeline.PolyTask {
	t.Helper()
	spec := pathology.Representative()
	spec.Tiles = tiles
	d := pathology.Generate(spec)
	tasks := make([]pipeline.PolyTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		tasks[i] = pipeline.PolyTask{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	return tasks
}

// TestShardsAcrossDevices is the tentpole correctness test: a job sharded
// over two devices must produce the same report a single direct pipeline run
// produces, and both devices must actually execute work.
func TestShardsAcrossDevices(t *testing.T) {
	tasks := testTasks(t, 6)

	direct, err := pipeline.RunParsed(tasks, pipeline.Config{Devices: []*gpu.Device{gpu.NewDevice(gpu.GTX580())}})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	s := New(Config{Devices: 2})
	defer s.Close()
	id, err := s.SubmitJob(Tasks(tasks), JobOpts{Name: "rep"})
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
	if st.Shards != 2 {
		t.Fatalf("job ran %d shards, want 2", st.Shards)
	}
	if len(st.DeviceIDs) < 2 {
		t.Fatalf("job used devices %v, want 2 distinct devices", st.DeviceIDs)
	}
	for _, d := range s.DeviceStats() {
		if d.Shards == 0 || d.Launches == 0 {
			t.Errorf("device %d idle (shards=%d launches=%d), want both devices busy",
				d.ID, d.Shards, d.Launches)
		}
	}

	if st.Report.Intersecting != direct.Intersecting || st.Report.Candidates != direct.Candidates {
		t.Errorf("pair counts (%d, %d) != direct (%d, %d)",
			st.Report.Intersecting, st.Report.Candidates, direct.Intersecting, direct.Candidates)
	}
	if math.Abs(st.Report.Similarity-direct.Similarity) > 1e-9 {
		t.Errorf("similarity %.12f != direct %.12f", st.Report.Similarity, direct.Similarity)
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
		id, err := s.SubmitJob(Tasks(tasks), JobOpts{Name: "again"})
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
	id, err := s.SubmitJob(Tasks(tasks), JobOpts{Name: "cpu"})
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
	if _, err := s.SubmitJob(Tasks(nil), JobOpts{Name: "empty"}); err != ErrEmptyJob {
		t.Errorf("Submit(nil) err = %v, want ErrEmptyJob", err)
	}
	s.Close()
	if _, err := s.SubmitJob(Tasks(testTasks(t, 1)), JobOpts{Name: "late"}); err != ErrClosed {
		t.Errorf("Submit after Close err = %v, want ErrClosed", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// One device, one runner: the second job stays queued while a gated
	// first job holds the runner, so the cancel always finds it queued.
	s := New(Config{Devices: 1})
	defer s.Close()
	first, release := startFiller(t, s)
	var once sync.Once
	defer once.Do(release)
	second, err := s.SubmitJob(Tasks(testTasks(t, 2)), JobOpts{Name: "victim"})
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
		id, err := s.SubmitJob(Tasks(testTasks(t, 1)), JobOpts{Name: "j"})
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
	// Two slots: the batch band's gated job holds the only general runner,
	// so a second batch job stays queued, and the interactive flood runs on
	// the reserved slot.
	s := New(Config{Devices: 2})
	defer s.Close()
	tiny := testTasks(t, 1)
	tiny[0].A, tiny[0].B = tiny[0].A[:1], tiny[0].B[:1]
	gate := &gatedSource{tasks: tiny, release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(gate.release) }) }
	defer release()
	running, err := s.SubmitJob(gate, JobOpts{Name: "held", Band: BandBatch})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := s.Job(running); st.State == Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the held job never started")
		}
	}
	queued, err := s.SubmitJob(Tasks(tiny), JobOpts{Name: "behind", Band: BandBatch})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const forgotten = 100
	ids := make([]string, keepFinishedJobs+forgotten)
	for i := range ids {
		id, err := s.SubmitJob(Tasks(tiny), JobOpts{Name: "flood"})
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
	release()
	for _, id := range []string{running, queued} {
		if st, err := s.Wait(ctx, id); err != nil || st.ID != id || st.State != Done {
			t.Fatalf("Wait(%s) = %s %q (%v), want done", id, st.State, st.ID, err)
		}
	}
	checkJobs(append([]string{running, queued}, ids[forgotten+2:]...))
}

// weightSource is a TaskSource with explicit per-tile weights for shard
// policy tests.
type weightSource []int64

func (w weightSource) Len() int           { return len(w) }
func (w weightSource) Weight(i int) int64 { return w[i] }
func (w weightSource) PolyTask(i int) (pipeline.PolyTask, error) {
	return pipeline.PolyTask{Tile: i}, nil
}

func TestShardTasks(t *testing.T) {
	tasks := testTasks(t, 5)
	shards := shardTasks(Tasks(tasks), 8)
	if len(shards) != 5 {
		t.Fatalf("shardTasks over-split: %d shards for 5 tasks", len(shards))
	}
	shards = shardTasks(Tasks(tasks), 2)
	if len(shards) != 2 {
		t.Fatalf("shardTasks(5, 2) = %d shards, want 2", len(shards))
	}
	seen := make(map[int]bool)
	for _, sh := range shards {
		for _, ix := range sh {
			if seen[ix] {
				t.Fatalf("tile %d assigned to two shards", ix)
			}
			seen[ix] = true
		}
	}
	if len(seen) != len(tasks) {
		t.Fatalf("shards hold %d tiles, want %d", len(seen), len(tasks))
	}
}

// TestShardTasksWeighted checks the throughput-weighted split: one huge tile
// plus many small ones must not share a shard with other work, and the byte
// loads of the shards must come out far more even than a round-robin count
// split would make them.
func TestShardTasksWeighted(t *testing.T) {
	src := weightSource{1000, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	shards := shardTasks(src, 2)
	if len(shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(shards))
	}
	loads := make([]int64, len(shards))
	for i, sh := range shards {
		for _, ix := range sh {
			loads[i] += src.Weight(ix)
		}
	}
	// LPT on these weights: the heavy tile alone on one shard, every small
	// tile on the other — 1000 vs 100.
	heavy, light := loads[0], loads[1]
	if heavy < light {
		heavy, light = light, heavy
	}
	if heavy != 1000 || light != 100 {
		t.Fatalf("weighted shard loads = %v, want [1000 100]", loads)
	}
	// Determinism: same source, same split.
	again := shardTasks(src, 2)
	for i := range shards {
		if len(again[i]) != len(shards[i]) {
			t.Fatalf("shardTasks is not deterministic: %v vs %v", again, shards)
		}
		for k := range shards[i] {
			if again[i][k] != shards[i][k] {
				t.Fatalf("shardTasks is not deterministic: %v vs %v", again, shards)
			}
		}
	}
}

// slowWeightSource wraps real tasks with a Weight that blocks until released,
// simulating a source whose weight scan is expensive (a cross-reader walking
// tile manifests). started is closed when sharding first asks for a weight.
type slowWeightSource struct {
	tasks   []pipeline.PolyTask
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *slowWeightSource) Len() int { return len(s.tasks) }
func (s *slowWeightSource) Weight(i int) int64 {
	s.once.Do(func() { close(s.started) })
	<-s.release
	return 1
}
func (s *slowWeightSource) PolyTask(i int) (pipeline.PolyTask, error) { return s.tasks[i], nil }

// TestJobsNotBlockedBySlowSharding is the regression test for sharding inside
// the scheduler lock: while a source's Weight scan stalls shardTasks, the
// observability surface (Jobs, and through it /jobs, /metrics, /healthz) must
// still answer.
func TestJobsNotBlockedBySlowSharding(t *testing.T) {
	s := New(Config{Devices: 1})
	defer s.Close()
	src := &slowWeightSource{
		tasks:   testTasks(t, 2),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	id, err := s.SubmitJob(src, JobOpts{Name: "slow-shard"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	select {
	case <-src.started:
	case <-time.After(10 * time.Second):
		t.Fatal("sharding never started")
	}
	// The runner is now inside shardTasks with Weight blocked. Jobs must not
	// be stuck behind it.
	got := make(chan []JobStatus, 1)
	go func() { got <- s.Jobs() }()
	select {
	case jobs := <-got:
		if len(jobs) != 1 || jobs[0].ID != id {
			t.Fatalf("Jobs() = %+v, want the one submitted job", jobs)
		}
		if jobs[0].State != Queued {
			t.Errorf("job state during sharding = %v, want Queued", jobs[0].State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Jobs() blocked while a slow source sharded — shardTasks runs under the scheduler lock")
	}
	close(src.release)
	st, err := s.Wait(context.Background(), id)
	if err != nil || st.State != Done {
		t.Fatalf("job after release: state=%v err=%v, want Done", st.State, err)
	}
}

// TestCancelDuringSharding covers the terminal re-check after sharding moved
// outside the lock: a job canceled while its source shards must finalize as
// Canceled with the computed shards discarded unstarted.
func TestCancelDuringSharding(t *testing.T) {
	s := New(Config{Devices: 1})
	defer s.Close()
	src := &slowWeightSource{
		tasks:   testTasks(t, 2),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	id, err := s.SubmitJob(src, JobOpts{Name: "cancel-shard"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	select {
	case <-src.started:
	case <-time.After(10 * time.Second):
		t.Fatal("sharding never started")
	}
	if err := s.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	close(src.release)
	st, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != Canceled {
		t.Fatalf("state = %v, want Canceled", st.State)
	}
	if st.Shards != 0 {
		t.Errorf("canceled-during-shard job reports %d shards, want 0 (shards discarded)", st.Shards)
	}
}

// TestMergeMatchesUnsharded checks pipeline.Merge against ground truth on
// partitioned runs.
func TestMergeMatchesUnsharded(t *testing.T) {
	tasks := testTasks(t, 4)
	whole, err := pipeline.RunParsed(tasks, pipeline.Config{})
	if err != nil {
		t.Fatalf("whole run: %v", err)
	}
	half1, err := pipeline.RunParsed(tasks[:2], pipeline.Config{})
	if err != nil {
		t.Fatalf("half1: %v", err)
	}
	half2, err := pipeline.RunParsed(tasks[2:], pipeline.Config{})
	if err != nil {
		t.Fatalf("half2: %v", err)
	}
	merged := pipeline.Merge(half1, half2)
	if merged.Intersecting != whole.Intersecting || merged.Candidates != whole.Candidates {
		t.Errorf("merged counts (%d, %d) != whole (%d, %d)",
			merged.Intersecting, merged.Candidates, whole.Intersecting, whole.Candidates)
	}
	if math.Abs(merged.Similarity-whole.Similarity) > 1e-9 {
		t.Errorf("merged similarity %.12f != whole %.12f", merged.Similarity, whole.Similarity)
	}
}
