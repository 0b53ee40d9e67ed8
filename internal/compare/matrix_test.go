package compare

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/store"
)

// directSubmit is a cache-less cell submitter over a store and scheduler.
func directSubmit(_ testing.TB, s *store.Store, sc *sched.Scheduler, calls *int64) SubmitFunc {
	return func(idA, idB, _ string) (SubmitOutcome, error) {
		if calls != nil {
			atomic.AddInt64(calls, 1)
		}
		dsA, err := s.OpenDataset(idA)
		if err != nil {
			return SubmitOutcome{}, err
		}
		dsB, err := s.OpenDataset(idB)
		if err != nil {
			return SubmitOutcome{}, err
		}
		src, match := NewSource(dsA, dsB)
		id, err := sc.SubmitJob(src, sched.JobOpts{Name: "cell"})
		if err != nil {
			return SubmitOutcome{}, err
		}
		return SubmitOutcome{
			JobID:      id,
			Tiles:      len(match.Pairs),
			UnmatchedA: len(match.OnlyA),
			UnmatchedB: len(match.OnlyB),
		}, nil
	}
}

func waitRun(t *testing.T, r *Run) Status {
	t.Helper()
	select {
	case <-r.Done():
	case <-time.After(time.Minute):
		t.Fatalf("matrix run %s did not finish", r.ID())
	}
	return r.Status()
}

// TestMatrixSymmetricAndExact: a K=3 run produces a symmetric 3×3 status
// whose off-diagonal cells are bit-identical to independently submitted
// pairwise jobs, with the diagonal marked self and every cell answered by a job.
func TestMatrixSymmetricAndExact(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{Devices: 2})
	t.Cleanup(sc.Close)

	ids := []string{
		ingestVariant(t, s, "slideM", 11, 3).ID,
		ingestVariant(t, s, "slideM", 22, 3).ID,
		ingestVariant(t, s, "slideM", 33, 3).ID,
	}

	m := NewManager(ManagerConfig{Scheduler: sc, Submit: directSubmit(t, s, sc, nil), Concurrency: 2})
	run, err := m.StartSpec(RunSpec{Name: "exactness", Datasets: ids}, nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	st := waitRun(t, run)
	if st.State != RunDone {
		t.Fatalf("run ended %s, cells %+v", st.State, st.Cells)
	}
	if st.PlannedCells != 3 || st.TerminalCells != 3 {
		t.Fatalf("planned/terminal = %d/%d, want 3/3", st.PlannedCells, st.TerminalCells)
	}
	if len(st.Cells) != 3 {
		t.Fatalf("cell grid is %d×?, want 3×3", len(st.Cells))
	}

	for i := 0; i < 3; i++ {
		if st.Cells[i][i].State != CellSelf {
			t.Errorf("diagonal cell [%d][%d] state %q, want self", i, i, st.Cells[i][i].State)
		}
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			c, mirror := st.Cells[i][j], st.Cells[j][i]
			if c.State != CellDone || c.JobID == "" {
				t.Fatalf("cell [%d][%d] state %q, job %q: %s", i, j, c.State, c.JobID, c.Error)
			}
			if c.Similarity != mirror.Similarity || c.JobID != mirror.JobID {
				t.Errorf("cell [%d][%d] not mirrored: %v/%s vs %v/%s",
					i, j, c.Similarity, c.JobID, mirror.Similarity, mirror.JobID)
			}
		}
	}

	// Independent pairwise jobs, same orientation as the plan (i < j).
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			dsA, _ := s.OpenDataset(ids[i])
			dsB, _ := s.OpenDataset(ids[j])
			src, _ := NewSource(dsA, dsB)
			jobID, err := sc.SubmitJob(src, sched.JobOpts{Name: "oracle"})
			if err != nil {
				t.Fatal(err)
			}
			want := waitJob(t, sc, jobID)
			got := st.Cells[i][j]
			if got.Similarity != want.Report.Similarity ||
				got.Intersect != want.Report.Intersecting ||
				got.Candidates != want.Report.Candidates {
				t.Errorf("cell [%d][%d] = (%.17g, %d, %d), independent job = (%.17g, %d, %d)",
					i, j, got.Similarity, got.Intersect, got.Candidates,
					want.Report.Similarity, want.Report.Intersecting, want.Report.Candidates)
			}
		}
	}

	if st.ExactCells != 3 {
		t.Errorf("exact cells = %d, want 3", st.ExactCells)
	}
}

// TestMatrixCachedCells: cells answered with a ready report (the persisted
// cache path) complete without any scheduler job.
func TestMatrixCachedCells(t *testing.T) {
	sc := sched.New(sched.Config{})
	t.Cleanup(sc.Close)
	rep := pipeline.Result{Similarity: 0.5, RatioSum: 1, Intersecting: 2, Candidates: 3}
	m := NewManager(ManagerConfig{
		Scheduler: sc,
		Submit: func(idA, idB, _ string) (SubmitOutcome, error) {
			return SubmitOutcome{Cached: true, Report: &rep, Tiles: 4}, nil
		},
	})
	ids := []string{testID('a'), testID('b'), testID('c')}
	run, err := m.StartSpec(RunSpec{Name: "cached", Datasets: ids}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := waitRun(t, run)
	if st.State != RunDone {
		t.Fatalf("run ended %s", st.State)
	}
	for i := range st.Cells {
		for j := range st.Cells[i] {
			if i == j {
				continue
			}
			c := st.Cells[i][j]
			if c.State != CellDone || !c.Cached || c.JobID != "" || c.Similarity != 0.5 {
				t.Fatalf("cell [%d][%d] = %+v, want cached done with similarity 0.5", i, j, c)
			}
		}
	}
	if st.ExactCells != 3 || st.TerminalCells != 3 {
		t.Errorf("exact/terminal cells = %d/%d, want 3/3", st.ExactCells, st.TerminalCells)
	}
}

// TestFinishedRunsForgotten is the forgetting rule for runs: past
// keepFinishedRuns finished runs the oldest leaves Get and Runs, while a
// running run is never forgotten.
func TestFinishedRunsForgotten(t *testing.T) {
	sc := sched.New(sched.Config{})
	t.Cleanup(sc.Close)
	rep := pipeline.Result{Similarity: 0.5, RatioSum: 1, Intersecting: 2, Candidates: 3}
	hold := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	held := testID('f')
	m := NewManager(ManagerConfig{
		Scheduler: sc,
		Submit: func(idA, _, _ string) (SubmitOutcome, error) {
			if idA == held {
				<-hold
			}
			return SubmitOutcome{Cached: true, Report: &rep, Tiles: 1}, nil
		},
	})
	live, err := m.StartSpec(RunSpec{Datasets: []string{held, testID('e')}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const forgotten = 10
	ids := make([]string, keepFinishedRuns+forgotten)
	for i := range ids {
		run, err := m.StartSpec(RunSpec{Datasets: []string{testID('a'), testID('b')}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitRun(t, run); st.State != RunDone {
			t.Fatalf("run %s ended %s", run.ID(), st.State)
		}
		ids[i] = run.ID()
	}
	for i, id := range ids {
		if _, ok := m.Get(id); ok != (i >= forgotten) {
			t.Fatalf("run %d of %d (%s): known = %v, want only the last %d finished", i, len(ids), id, ok, keepFinishedRuns)
		}
	}
	if err := m.Cancel(ids[0]); err != ErrNoRun {
		t.Fatalf("Cancel(forgotten run) = %v, want ErrNoRun", err)
	}
	if _, ok := m.Get(live.ID()); !ok {
		t.Fatal("the running run was forgotten")
	}
	if n := len(m.Runs()); n != keepFinishedRuns+1 {
		t.Fatalf("Runs() lists %d runs, want %d finished plus the live one", n, keepFinishedRuns)
	}

	release()
	waitRun(t, live)
	if n := len(m.Runs()); n != keepFinishedRuns {
		t.Fatalf("Runs() lists %d runs after the live one finished, want %d", n, keepFinishedRuns)
	}
	if _, ok := m.Get(ids[forgotten]); ok {
		t.Fatal("the oldest remembered run survived a newer run finishing")
	}
}

func testID(b byte) string {
	id := make([]byte, 64)
	for i := range id {
		id[i] = b
	}
	return string(id)
}

// gatedSource blocks task materialization until released, making
// cancellation timing deterministic.
type gatedSource struct {
	release <-chan struct{}
	task    pipeline.PolyTask
}

func (g *gatedSource) Len() int { return 1 }
func (g *gatedSource) PolyTask(int) (pipeline.PolyTask, error) {
	<-g.release
	return g.task, nil
}

// TestMatrixCellResubmitsAfterExternalCancel: a cell whose member job is
// canceled from outside the run (another run cancelling a shared job, or a
// direct job DELETE) is resubmitted instead of poisoning the whole matrix
// with a cancellation it never asked for.
func TestMatrixCellResubmitsAfterExternalCancel(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{})
	t.Cleanup(sc.Close)
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	man := ingestVariant(t, s, "slideR", 9, 1)
	ds, err := s.OpenDataset(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	task, err := ds.Source().PolyTask(0)
	if err != nil {
		t.Fatal(err)
	}

	var attempts int64
	firstJob := make(chan string, 1)
	m := NewManager(ManagerConfig{
		Scheduler: sc,
		Submit: func(idA, idB, _ string) (SubmitOutcome, error) {
			n := atomic.AddInt64(&attempts, 1)
			if n == 1 {
				// First attempt: a job that blocks until released, so the
				// test can cancel it while the cell waits.
				id, err := sc.SubmitJob(&gatedSource{release: release, task: task}, sched.JobOpts{Name: "doomed"})
				if err != nil {
					return SubmitOutcome{}, err
				}
				firstJob <- id
				return SubmitOutcome{JobID: id, Tiles: 1}, nil
			}
			id, err := sc.SubmitJob(ds.Source(), sched.JobOpts{Name: "retry"})
			if err != nil {
				return SubmitOutcome{}, err
			}
			return SubmitOutcome{JobID: id, Tiles: 1}, nil
		},
	})
	run, err := m.StartSpec(RunSpec{Name: "resubmit", Datasets: []string{testID('4'), testID('5')}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var doomed string
	select {
	case doomed = <-firstJob:
	case <-time.After(10 * time.Second):
		t.Fatal("first attempt never submitted")
	}
	if err := sc.Cancel(doomed); err != nil { // an outside cancel, not the run's
		t.Fatalf("Cancel(%s): %v", doomed, err)
	}
	once.Do(func() { close(release) })

	st := waitRun(t, run)
	if st.State != RunDone {
		t.Fatalf("run ended %s, want done after resubmit: %+v", st.State, st.Cells)
	}
	if got := atomic.LoadInt64(&attempts); got != 2 {
		t.Fatalf("cell was submitted %d times, want 2 (original + resubmit)", got)
	}
	if c := st.Cells[0][1]; c.State != CellDone || c.JobID == doomed {
		t.Fatalf("cell = %+v, want done under a fresh job", c)
	}
	if st.ExactCells != 1 || st.TerminalCells != 1 {
		t.Fatalf("exact/terminal cells = %d/%d, want 1/1 (dead attempt removed)", st.ExactCells, st.TerminalCells)
	}
}

// TestMatrixCancelCancelsMembers is the cancellation acceptance test:
// cancelling a matrix cancels its in-flight member job and abandons the
// cells not yet submitted.
func TestMatrixCancelCancelsMembers(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{})
	t.Cleanup(sc.Close)
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	man := ingestVariant(t, s, "slideC", 5, 1)
	ds, err := s.OpenDataset(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	task, err := ds.Source().PolyTask(0)
	if err != nil {
		t.Fatal(err)
	}

	var submitted int64
	submitStarted := make(chan string, 1)
	m := NewManager(ManagerConfig{
		Scheduler:   sc,
		Concurrency: 1, // cells 2 and 3 stay queued behind the gated cell
		Submit: func(idA, idB, _ string) (SubmitOutcome, error) {
			atomic.AddInt64(&submitted, 1)
			id, err := sc.SubmitJob(&gatedSource{release: release, task: task}, sched.JobOpts{Name: "gated"})
			if err != nil {
				return SubmitOutcome{}, err
			}
			submitStarted <- id
			return SubmitOutcome{JobID: id, Tiles: 1}, nil
		},
	})
	run, err := m.StartSpec(RunSpec{Name: "cancelme", Datasets: []string{testID('1'), testID('2'), testID('3')}}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var jobID string
	select {
	case jobID = <-submitStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("first cell never submitted")
	}
	if err := run.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	once.Do(func() { close(release) }) // let the in-flight shard drain

	st := waitRun(t, run)
	if st.State != RunCanceled {
		t.Fatalf("run ended %s, want canceled", st.State)
	}
	if got := atomic.LoadInt64(&submitted); got != 1 {
		t.Fatalf("%d cells were submitted after cancel, want only the first", got)
	}
	member := waitJob(t, sc, jobID)
	if member.State != sched.Canceled {
		t.Fatalf("member job ended %s, want canceled", member.State)
	}
	canceledCells := 0
	for i := range st.Cells {
		for j := range st.Cells[i] {
			if i != j && st.Cells[i][j].State == CellCanceled {
				canceledCells++
			}
		}
	}
	if canceledCells != 6 { // 3 planned cells, each mirrored
		t.Errorf("%d canceled cell views, want all 6", canceledCells)
	}
	if st.TerminalCells != 3 || st.ExactCells != 0 {
		t.Errorf("terminal/exact cells = %d/%d, want 3/0", st.TerminalCells, st.ExactCells)
	}

	// A terminal run rejects a second cancel.
	if err := run.Cancel(); err != ErrRunTerminal {
		t.Errorf("second Cancel = %v, want ErrRunTerminal", err)
	}
}

// countingSched counts Job lookups, a scheduler call no status snapshot may
// make.
type countingSched struct {
	*sched.Scheduler
	jobCalls atomic.Int64
}

func (c *countingSched) Job(id string) (sched.JobStatus, bool) {
	c.jobCalls.Add(1)
	return c.Scheduler.Job(id)
}

// checkCountsMatchCells asserts a symmetric run's snapshot counts exactly
// what the snapshot's own cell grid shows, mirror included.
func checkCountsMatchCells(t *testing.T, st Status) {
	t.Helper()
	var planned, terminal, exact, skipped, bounded int
	for i := range st.Cells {
		for j := i + 1; j < len(st.Cells[i]); j++ {
			c := st.Cells[i][j]
			if m := st.Cells[j][i]; m.State != c.State || m.JobID != c.JobID || m.Similarity != c.Similarity {
				t.Errorf("version %d: cell [%d][%d] %+v, mirror %+v", st.Version, i, j, c, m)
			}
			planned++
			switch c.State {
			case CellDone:
				terminal++
				exact++
			case CellFailed, CellCanceled:
				terminal++
			case CellSkipped:
				terminal++
				skipped++
			case CellBounded:
				terminal++
				bounded++
			}
		}
	}
	if st.PlannedCells != planned || st.TerminalCells != terminal || st.ExactCells != exact ||
		st.SkippedCells != skipped || st.BoundedCells != bounded {
		t.Errorf("version %d: planned/terminal/exact/skipped/bounded %d/%d/%d/%d/%d, cells show %d/%d/%d/%d/%d",
			st.Version, st.PlannedCells, st.TerminalCells, st.ExactCells, st.SkippedCells, st.BoundedCells,
			planned, terminal, exact, skipped, bounded)
	}
}

// TestStatusSnapshotSelfConsistent: the counts and the cell grid come from one
// critical section, so no snapshot — taken on every change or polled in a
// tight loop while cells settle — can disagree with itself, and no snapshot,
// of a running run or a finished one, asks the scheduler anything.
func TestStatusSnapshotSelfConsistent(t *testing.T) {
	s := testStore(t)
	sc := &countingSched{Scheduler: sched.New(sched.Config{Devices: 2})}
	t.Cleanup(sc.Close)
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		ids = append(ids, ingestVariant(t, s, "slideS", seed, 2).ID)
	}
	m := NewManager(ManagerConfig{Scheduler: sc, Submit: directSubmit(t, s, sc.Scheduler, nil), Concurrency: 3})
	run, err := m.StartSpec(RunSpec{Name: "consistent", Datasets: ids}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(st Status) {
		t.Helper()
		checkCountsMatchCells(t, st)
		// Nothing else in this run looks a job up: cells wait on their jobs
		// and none is canceled, so any lookup came from a snapshot.
		if n := sc.jobCalls.Load(); n != 0 {
			t.Errorf("version %d: %d scheduler lookups, want 0", st.Version, n)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the poller: snapshots between version bumps too
		defer wg.Done()
		for {
			select {
			case <-run.Done():
				return
			default:
				check(run.Status())
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for since := int64(-1); ; { // the waiter: one snapshot per change
		st, err := run.WaitChange(ctx, since)
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		check(st)
		if st.State != RunRunning {
			break
		}
		since = st.Version
	}
	wg.Wait()

	st := run.Status()
	if st.State != RunDone || st.ExactCells != 6 || st.TerminalCells != 6 {
		t.Fatalf("run ended %s with exact/terminal %d/%d, want done 6/6", st.State, st.ExactCells, st.TerminalCells)
	}
	check(st)
}

// TestCancelLeavesSharedJobsRunning: cancelling a run cancels the cell jobs
// it submitted and not a job it merely attached to through a result-store
// hit — that job has other consumers.
func TestCancelLeavesSharedJobsRunning(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{Workers: 1})
	t.Cleanup(sc.Close)
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	man := ingestVariant(t, s, "slideO", 7, 1)
	ds, err := s.OpenDataset(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	task, err := ds.Source().PolyTask(0)
	if err != nil {
		t.Fatal(err)
	}
	// Another submitter's job, gated on the scheduler's only worker, so the
	// run's own job stays queued and a cancel finalizes it at once.
	shared, err := sc.SubmitJob(&gatedSource{release: release, task: task}, sched.JobOpts{Name: "someone else's"})
	if err != nil {
		t.Fatal(err)
	}
	idA, idB, idC := testID('a'), testID('b'), testID('c')
	ownedCh := make(chan string, 1)
	m := NewManager(ManagerConfig{
		Scheduler:   sc,
		Concurrency: 2,
		Submit: func(_, b, _ string) (SubmitOutcome, error) {
			if b == idB {
				return SubmitOutcome{JobID: shared, Cached: true, Tiles: 1}, nil
			}
			id, err := sc.SubmitJob(ds.Source(), sched.JobOpts{Name: "owned"})
			if err != nil {
				return SubmitOutcome{}, err
			}
			ownedCh <- id
			return SubmitOutcome{JobID: id, Tiles: 1}, nil
		},
	})
	run, err := m.StartSpec(RunSpec{SetA: []string{idA}, SetB: []string{idB, idC}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for since := int64(-1); ; {
		st, err := run.WaitChange(ctx, since)
		if err != nil {
			t.Fatalf("cells never both in flight: %v", err)
		}
		if st.Cells[0][0].State == CellRunning && st.Cells[0][1].State == CellRunning {
			if st.Cells[0][0].JobID == "" || st.Cells[0][1].JobID == "" {
				t.Fatalf("cells = %+v, want both the shared and the owned job on their cells", st.Cells)
			}
			break
		}
		since = st.Version
	}
	owned := <-ownedCh

	if err := run.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st := waitRun(t, run)
	if st.State != RunCanceled {
		t.Fatalf("run ended %s, want canceled", st.State)
	}
	if js := waitJob(t, sc, owned); js.State != sched.Canceled {
		t.Errorf("owned job ended %s, want canceled with its run", js.State)
	}
	if js, _ := sc.Job(shared); js.State.Terminal() {
		t.Fatalf("shared job is %s after the run's cancel, want it still running for its owner", js.State)
	}
	once.Do(func() { close(release) })
	if js := waitJob(t, sc, shared); js.State != sched.Done {
		t.Errorf("shared job ended %s, want done", js.State)
	}
}
