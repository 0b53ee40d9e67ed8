package compare

// Tests for the progressive matrix path: bound soundness, top-k runs over a
// spatially skewed corpus and a graded one (differential against the full
// exact matrix), bipartite grids, top-k early termination of in-flight
// cells, and exact upgrades of elided cells.

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/store"
)

// ingestShifted stores a generated variant whose polygons are translated by
// (dx, dy): same tile keys as an unshifted variant of the same image, but a
// different spatial cluster. This is the skew that makes bounds bite —
// cross-cluster cells have disjoint per-tile set MBRs and bound 0.
func ingestShifted(t *testing.T, s *store.Store, image string, seed int64, tiles int, dx, dy int32) *store.Manifest {
	t.Helper()
	spec := pathology.Representative()
	spec.Name = image
	spec.Seed = seed
	spec.Tiles = tiles
	d := pathology.Generate(spec)
	its := make([]store.IngestTile, 0, len(d.Pairs))
	for _, tp := range d.Pairs {
		it := store.IngestTile{Image: tp.Image, Tile: tp.Index}
		for _, p := range tp.A {
			it.A = append(it.A, p.Translate(dx, dy))
		}
		for _, p := range tp.B {
			it.B = append(it.B, p.Translate(dx, dy))
		}
		its = append(its, it)
	}
	man, err := s.Ingest(image, its)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return man
}

// clusterCorpus ingests a 6-dataset skewed corpus: three variants at the
// origin, three shifted far away. All six share tile keys.
func clusterCorpus(t *testing.T, s *store.Store) (near, far []string) {
	t.Helper()
	const shift = 1 << 20
	for seed := int64(1); seed <= 3; seed++ {
		near = append(near, ingestShifted(t, s, "slideK", seed, 2, 0, 0).ID)
	}
	for seed := int64(4); seed <= 6; seed++ {
		far = append(far, ingestShifted(t, s, "slideK", seed, 2, shift, shift).ID)
	}
	return near, far
}

// TestBoundPairSoundness: no exact cell similarity may exceed its bound.
// Cross-cluster bounds of the clustered corpus must be exactly zero; every
// bound of the graded corpus falls strictly inside (0, 1), and at offset 0 it
// is the exact similarity itself.
func TestBoundPairSoundness(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{})
	t.Cleanup(sc.Close)
	near, far := clusterCorpus(t, s)
	all := append(append([]string(nil), near...), far...)
	checkBoundsSound(t, s, sc, all, func(i, j int, cb CellBound, _ float64) {
		crossCluster := (i < len(near)) != (j < len(near))
		if crossCluster && cb.Bound != 0 {
			t.Errorf("cross-cluster bound [%d][%d] = %v, want 0 (disjoint MBRs)", i, j, cb.Bound)
		}
		if !crossCluster && cb.Bound == 0 {
			t.Errorf("within-cluster bound [%d][%d] = 0; overlapping variants must bound positive", i, j)
		}
	})
	for _, offset := range []int32{0, 2} {
		checkBoundsSound(t, s, sc, gradedCorpus(t, s, 6, 2, offset), func(i, j int, cb CellBound, sim float64) {
			if cb.Bound <= 0 || cb.Bound >= 1 {
				t.Errorf("graded offset %d: bound [%d][%d] = %v, want strictly inside (0, 1)", offset, i, j, cb.Bound)
			}
			if offset == 0 && math.Abs(sim-cb.Bound) > 1e-9 {
				t.Errorf("graded offset 0: cell [%d][%d] similarity %.12f, want its bound %.12f", i, j, sim, cb.Bound)
			}
		})
	}
}

// checkBoundsSound computes every cell (i < j) of ids exactly, fails any whose
// similarity exceeds its bound, and hands the rest to check.
func checkBoundsSound(t *testing.T, s *store.Store, sc *sched.Scheduler, ids []string, check func(i, j int, cb CellBound, sim float64)) {
	t.Helper()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			cb, err := BoundPair(s, ids[i], ids[j])
			if err != nil {
				t.Fatalf("BoundPair(%d,%d): %v", i, j, err)
			}
			if cb.Trivial {
				t.Errorf("bound [%d][%d] degraded to trivial; freshly ingested datasets carry stats", i, j)
			}

			// Exact oracle: the similarity the real kernel computes can
			// never exceed the bound (tiny epsilon for float summation).
			dsA := openDataset(t, s, ids[i])
			dsB := openDataset(t, s, ids[j])
			src, _ := NewSource(dsA, dsB)
			st := waitJob(t, sc, mustSubmit(t, sc, src))
			if st.Report.Similarity > cb.Bound+1e-9 {
				t.Errorf("cell [%d][%d] exact similarity %.12f exceeds bound %.12f — bound unsound",
					i, j, st.Report.Similarity, cb.Bound)
			}
			check(i, j, cb, st.Report.Similarity)
		}
	}
}

func mustSubmit(t *testing.T, sc *sched.Scheduler, src sched.TaskSource) string {
	t.Helper()
	id, err := sc.SubmitJob(src, sched.JobOpts{Name: "oracle"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	return id
}

// TestMatrixTopKDifferential is the tentpole acceptance test: a top_k=3 run
// over the 6-way skewed corpus completes with skipped cells, and every cell
// it did answer exactly is bit-identical to the full exact matrix's same
// cell — progressive execution elides work, never changes answers. The graded
// corpus, whose bounds fall strictly inside (0, 1), must pass the same
// differential.
func TestMatrixTopKDifferential(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{Devices: 2})
	t.Cleanup(sc.Close)
	near, far := clusterCorpus(t, s)
	all := append(append([]string(nil), near...), far...)

	bound := func(a, b string) (CellBound, error) { return BoundPair(s, a, b) }
	m := NewManager(ManagerConfig{
		Scheduler: sc,
		Submit:    directSubmit(t, s, sc, nil),
		Bound:     bound,
	})

	run, st := checkTopKAgainstOracle(t, m, all, 3)
	if st.SkippedCells == 0 {
		t.Fatalf("top-k run skipped 0 cells over the skewed corpus; status %+v", st)
	}
	if st.ExactCells == 15 {
		t.Fatalf("top-k run answered %d cells exactly, want some but not all", st.ExactCells)
	}
	// All 9 cross-cluster cells have bound 0 and must be skipped.
	if st.SkippedCells < 9 {
		t.Errorf("only %d skipped cells, want at least the 9 cross-cluster ones", st.SkippedCells)
	}

	if st.PlanTrace == nil || st.PlanTrace.Stages["bound"] < 0 {
		t.Errorf("progressive run carries no plan trace with a bound stage: %+v", st.PlanTrace)
	}
	if st.Version == 0 {
		t.Error("terminal run still at version 0; state changes must bump the version")
	}

	// WaitChange on a terminal run returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if got, err := run.WaitChange(ctx, st.Version+100); err != nil || got.State != RunDone {
		t.Errorf("WaitChange on terminal run = (%s, %v), want immediate done", got.State, err)
	}

	for _, offset := range []int32{0, 2} {
		checkTopKAgainstOracle(t, m, gradedCorpus(t, s, 8, 2, offset), 3)
	}
}

// checkTopKAgainstOracle runs the full exact matrix over ids, then a top_k
// run, and checks the top_k run against it: every exact cell is bit-identical,
// every elided cell's true similarity is at or below its bound, and the
// oracle's top k similarities are all answered exactly.
func checkTopKAgainstOracle(t *testing.T, m *Manager, ids []string, k int) (*Run, Status) {
	t.Helper()
	n := len(ids) * (len(ids) - 1) / 2
	// Oracle first: the full exact matrix, no objectives. Progressive runs
	// plan bounds too, but without an objective nothing may be elided.
	oracleRun, err := m.StartSpec(RunSpec{Name: "oracle", Datasets: ids}, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := waitRun(t, oracleRun)
	if oracle.State != RunDone || oracle.ExactCells != n {
		t.Fatalf("oracle run: state %s, %d exact cells, want done/%d", oracle.State, oracle.ExactCells, n)
	}

	run, err := m.StartSpec(RunSpec{Name: "topk", Datasets: ids, TopK: k}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := waitRun(t, run)
	if st.State != RunDone {
		t.Fatalf("top-k run ended %s", st.State)
	}
	if st.ExactCells == 0 {
		t.Fatalf("top-k run answered no cell exactly")
	}
	if st.ExactCells+st.SkippedCells+st.BoundedCells != n {
		t.Fatalf("cells don't add up: exact %d + skipped %d + bounded %d != %d",
			st.ExactCells, st.SkippedCells, st.BoundedCells, n)
	}

	// Differential bit-identity over the upper triangle.
	var exactSims, oracleSims []float64
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			got, want := st.Cells[i][j], oracle.Cells[i][j]
			oracleSims = append(oracleSims, want.Similarity)
			switch got.State {
			case CellDone:
				if got.Similarity != want.Similarity ||
					got.Intersect != want.Intersect ||
					got.Candidates != want.Candidates {
					t.Errorf("cell [%d][%d] = (%.17g, %d, %d), oracle = (%.17g, %d, %d) — not bit-identical",
						i, j, got.Similarity, got.Intersect, got.Candidates,
						want.Similarity, want.Intersect, want.Candidates)
				}
				exactSims = append(exactSims, got.Similarity)
			case CellSkipped, CellBounded:
				if got.Bound == nil {
					t.Errorf("elided cell [%d][%d] carries no bound", i, j)
				} else if want.Similarity > *got.Bound+1e-9 {
					t.Errorf("elided cell [%d][%d] bound %.12f below true similarity %.12f — answer changed",
						i, j, *got.Bound, want.Similarity)
				}
			default:
				t.Errorf("cell [%d][%d] state %q, want done/skipped/bounded", i, j, got.State)
			}
		}
	}

	// The oracle's top-k similarities must all be among the exact cells —
	// eliding may only drop cells outside the answer.
	for _, top := range topN(oracleSims, k) {
		found := false
		for _, s := range exactSims {
			if s == top {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("oracle top-%d similarity %.12f missing from the progressive run's exact cells %v",
				k, top, exactSims)
		}
	}
	return run, st
}

func topN(sims []float64, n int) []float64 {
	out := append([]float64(nil), sims...)
	for i := 0; i < n && i < len(out); i++ {
		max := i
		for j := i + 1; j < len(out); j++ {
			if out[j] > out[max] {
				max = j
			}
		}
		out[i], out[max] = out[max], out[i]
	}
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}

// TestMatrixMinSimilaritySkips: a min_similarity objective alone (no top-k)
// statically skips the provably-below cells and computes the rest exactly.
func TestMatrixMinSimilarity(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{})
	t.Cleanup(sc.Close)
	near, far := clusterCorpus(t, s)

	m := NewManager(ManagerConfig{
		Scheduler: sc,
		Submit:    directSubmit(t, s, sc, nil),
		Bound:     func(a, b string) (CellBound, error) { return BoundPair(s, a, b) },
	})
	run, err := m.StartSpec(RunSpec{
		Datasets:      []string{near[0], near[1], far[0]},
		MinSimilarity: 0.01,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := waitRun(t, run)
	if st.State != RunDone {
		t.Fatalf("run ended %s", st.State)
	}
	// (near0, near1) computes; the two cross-cluster cells skip.
	if st.ExactCells != 1 || st.SkippedCells != 2 || st.BoundedCells != 0 {
		t.Fatalf("exact/skipped/bounded = %d/%d/%d, want 1/2/0. cells: %+v",
			st.ExactCells, st.SkippedCells, st.BoundedCells, st.Cells)
	}
	if c := st.Cells[0][1]; c.State != CellDone || c.Similarity <= 0 {
		t.Errorf("within-cluster cell = %+v, want exact positive similarity", c)
	}
	if c := st.Cells[0][2]; c.State != CellSkipped || c.Bound == nil || *c.Bound != 0 {
		t.Errorf("cross-cluster cell = %+v, want skipped with bound 0", c)
	}
}

// TestPlanOrder: the manifest bound is the only plan rule. Cells dispatch in
// descending-bound order, equal bounds keep plan order, and a bound-0 cell
// finishes skipped without ever reaching the submitter.
func TestPlanOrder(t *testing.T) {
	sc := sched.New(sched.Config{})
	t.Cleanup(sc.Close)
	idA := testID('a')
	cols := []string{testID('b'), testID('c'), testID('d'), testID('e')}
	bounds := map[string]float64{cols[0]: 0.2, cols[1]: 0.9, cols[2]: 0.9, cols[3]: 0}
	rep := pipeline.Result{Similarity: 0.15}
	var mu sync.Mutex
	var submitted []string
	m := NewManager(ManagerConfig{
		Scheduler:   sc,
		Concurrency: 1,
		Bound: func(_, b string) (CellBound, error) {
			return CellBound{Bound: bounds[b], Tiles: 1}, nil
		},
		Submit: func(_, b, _ string) (SubmitOutcome, error) {
			mu.Lock()
			submitted = append(submitted, b)
			mu.Unlock()
			return SubmitOutcome{Cached: true, Report: &rep, Tiles: 1}, nil
		},
	})
	run, err := m.StartSpec(RunSpec{SetA: []string{idA}, SetB: cols, MinSimilarity: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := waitRun(t, run)
	if st.State != RunDone {
		t.Fatalf("run ended %s: %+v", st.State, st.Cells)
	}
	mu.Lock()
	got := append([]string(nil), submitted...)
	mu.Unlock()
	want := []string{cols[1], cols[2], cols[0]}
	if len(got) != len(want) {
		t.Fatalf("submitted %d cells, want %d (the 0.9 pair, then 0.2)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("submission %d went to column %.1s…, want %.1s…", i, got[i], want[i])
		}
	}
	if st.ExactCells != 3 || st.SkippedCells != 1 || st.BoundedCells != 0 {
		t.Fatalf("exact/skipped/bounded = %d/%d/%d, want 3/1/0", st.ExactCells, st.SkippedCells, st.BoundedCells)
	}
	if c := st.Cells[0][3]; c.State != CellSkipped || c.JobID != "" || c.Bound == nil || *c.Bound != 0 {
		t.Errorf("bound-0 cell = %+v, want skipped with bound 0 and no job", c)
	}
}

// TestMatrixBipartite: a set_a × set_b run produces an oriented rows×cols
// grid with no mirroring, and an ID on both sides becomes a computed
// self-cross cell, not a "self" placeholder.
func TestMatrixBipartite(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{})
	t.Cleanup(sc.Close)
	a := ingestShifted(t, s, "slideB", 7, 2, 0, 0).ID
	b := ingestShifted(t, s, "slideB", 8, 2, 0, 0).ID

	m := NewManager(ManagerConfig{Scheduler: sc, Submit: directSubmit(t, s, sc, nil)})
	run, err := m.StartSpec(RunSpec{SetA: []string{a}, SetB: []string{a, b}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := waitRun(t, run)
	if st.State != RunDone {
		t.Fatalf("run ended %s: %+v", st.State, st.Cells)
	}
	if len(st.SetA) != 1 || len(st.SetB) != 2 || len(st.Datasets) != 0 {
		t.Fatalf("axes = %v × %v (datasets %v), want 1×2 bipartite", st.SetA, st.SetB, st.Datasets)
	}
	if len(st.Cells) != 1 || len(st.Cells[0]) != 2 {
		t.Fatalf("grid is %dx%d, want 1x2", len(st.Cells), len(st.Cells[0]))
	}
	// The diagonal-ID cell is a real self-cross comparison.
	if c := st.Cells[0][0]; c.State != CellDone || c.Similarity <= 0 {
		t.Errorf("self-cross cell = %+v, want computed with positive similarity", c)
	}
	if c := st.Cells[0][1]; c.State != CellDone {
		t.Errorf("cross cell = %+v, want done", c)
	}

	// Validation: mixing axes is rejected, as are per-side duplicates.
	if _, err := m.StartSpec(RunSpec{Datasets: []string{a, b}, SetA: []string{a}, SetB: []string{b}}, nil); err == nil {
		t.Error("mixed datasets + set_a/set_b accepted")
	}
	if _, err := m.StartSpec(RunSpec{SetA: []string{a, a}, SetB: []string{b}}, nil); err == nil {
		t.Error("duplicate within set_a accepted")
	}
	if _, err := m.StartSpec(RunSpec{SetA: []string{a}, SetB: nil}, nil); err == nil {
		t.Error("set_a without set_b accepted")
	}
}

// TestMatrixPrunesInFlightCells: when an exact result proves an in-flight
// cell cannot enter the top-k answer, its owned job is canceled and the cell
// finishes `bounded`, not `canceled` — and the run is still a success.
func TestMatrixPrunesInFlightCells(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{Workers: 1})
	t.Cleanup(sc.Close)
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	man := ingestVariant(t, s, "slideP", 3, 1)
	ds := openDataset(t, s, man.ID)
	task, err := ds.Source().PolyTask(0)
	if err != nil {
		t.Fatal(err)
	}

	// A gated blocker occupies the scheduler's single worker, so the
	// victim's job stays Queued — and a queued job finalizes the moment the
	// run cancels it, making the prune observable without draining races.
	if _, err := sc.SubmitJob(&gatedSource{release: release, task: task}, sched.JobOpts{Name: "blocker"}); err != nil {
		t.Fatal(err)
	}

	idA, idB, idC := testID('a'), testID('b'), testID('c')
	bounds := map[string]float64{idB: 0.9, idC: 0.6}
	runCh := make(chan *Run, 1)
	rep := pipeline.Result{Similarity: 0.8}

	m := NewManager(ManagerConfig{
		Scheduler:   sc,
		Concurrency: 2,
		Bound: func(_, b string) (CellBound, error) {
			return CellBound{Bound: bounds[b], Tiles: 1}, nil
		},
		Submit: func(_, b, _ string) (SubmitOutcome, error) {
			switch b {
			case idC:
				// The prune victim: queued behind the blocker.
				id, err := sc.SubmitJob(ds.Source(), sched.JobOpts{Name: "victim"})
				if err != nil {
					return SubmitOutcome{}, err
				}
				return SubmitOutcome{JobID: id, Tiles: 1}, nil
			default:
				// The winner returns only once the victim cell is
				// observably in flight, then answers with an exact result
				// above the victim's bound — the trigger for pruning.
				r := <-runCh
				deadline := time.Now().Add(10 * time.Second)
				for {
					if st := r.Status(); st.Cells[0][1].State == CellRunning && st.Cells[0][1].JobID != "" {
						break
					}
					if time.Now().After(deadline) {
						return SubmitOutcome{}, context.DeadlineExceeded
					}
					time.Sleep(2 * time.Millisecond)
				}
				return SubmitOutcome{Cached: true, Report: &rep, Tiles: 1}, nil
			}
		},
	})

	// Bipartite 1×2: cell (a,b) bound 0.9 dispatches first, cell (a,c)
	// bound 0.6 second; with concurrency 2 both are in flight before any
	// exact result exists.
	run, err := m.StartSpec(RunSpec{SetA: []string{idA}, SetB: []string{idB, idC}, TopK: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	runCh <- run
	st := waitRun(t, run)
	if st.State != RunDone {
		t.Fatalf("run ended %s, want done (pruning is success): %+v", st.State, st.Cells)
	}
	if c := st.Cells[0][0]; c.State != CellDone || c.Similarity != 0.8 {
		t.Fatalf("winner cell = %+v, want exact 0.8", c)
	}
	victim := st.Cells[0][1]
	if victim.State != CellBounded {
		t.Fatalf("victim cell state %q, want bounded (top-k early termination)", victim.State)
	}
	if victim.Bound == nil || *victim.Bound != 0.6 {
		t.Errorf("victim bound = %v, want 0.6", victim.Bound)
	}
	if victim.JobID == "" {
		t.Fatal("victim never had a job; the prune path was not exercised")
	}
	job := waitJob(t, sc, victim.JobID)
	if job.State != sched.Canceled {
		t.Errorf("victim job ended %s, want canceled by the prune", job.State)
	}
	if math.IsNaN(victim.Similarity) || victim.Similarity != 0 {
		t.Errorf("bounded cell reports similarity %v, want 0 (no exact answer)", victim.Similarity)
	}
}

// TestUpgradeRefusedWhileRunRuns: an exact upgrade never outlives its run.
// The run's finish does not wait for an upgrade, so an upgrade of a skipped
// cell while the run still runs is refused with ErrRunRunning and the cell
// stays skipped; no snapshot shows a finished run with a running cell. Once
// the run has finished, the same upgrade computes the cell.
func TestUpgradeRefusedWhileRunRuns(t *testing.T) {
	s := testStore(t)
	sc := sched.New(sched.Config{})
	t.Cleanup(sc.Close)
	runGate, upgradeGate := make(chan struct{}), make(chan struct{})
	var runOnce, upgradeOnce sync.Once
	openRun := func() { runOnce.Do(func() { close(runGate) }) }
	openUpgrade := func() { upgradeOnce.Do(func() { close(upgradeGate) }) }
	t.Cleanup(openRun)
	t.Cleanup(openUpgrade)

	man := ingestVariant(t, s, "slideG", 4, 1)
	task, err := openDataset(t, s, man.ID).Source().PolyTask(0)
	if err != nil {
		t.Fatal(err)
	}
	idA, idB, idC := testID('a'), testID('b'), testID('c')
	bounds := map[string]float64{idB: 0.9, idC: 0.05}
	m := NewManager(ManagerConfig{
		Scheduler: sc,
		Bound: func(_, b string) (CellBound, error) {
			return CellBound{Bound: bounds[b], Tiles: 1}, nil
		},
		Submit: func(_, b, _ string) (SubmitOutcome, error) {
			gate := runGate
			if b == idC { // only an upgrade submits the skipped cell
				gate = upgradeGate
			}
			id, err := sc.SubmitJob(&gatedSource{release: gate, task: task}, sched.JobOpts{Name: "gated"})
			return SubmitOutcome{JobID: id, Tiles: 1}, err
		},
	})
	run, err := m.StartSpec(RunSpec{SetA: []string{idA}, SetB: []string{idB, idC}, MinSimilarity: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for since := int64(-1); ; {
		st, err := run.WaitChange(ctx, since)
		if err != nil {
			t.Fatalf("cells never settled into running + skipped: %v", err)
		}
		if st.Cells[0][0].State == CellRunning && st.Cells[0][1].State == CellSkipped {
			break
		}
		since = st.Version
	}

	// Upgrade while the run runs, then wait until the upgrade either
	// answered or shows on its cell.
	upgraded := make(chan error, 1)
	go func() {
		_, err := run.UpgradeCell(0, 1)
		upgraded <- err
	}()
	var upErr error
	answered := false
	for deadline := time.Now().Add(10 * time.Second); !answered; time.Sleep(time.Millisecond) {
		select {
		case upErr = <-upgraded:
			answered = true
			continue
		default:
		}
		if run.Status().Cells[0][1].State == CellRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("upgrade neither answered nor started")
		}
	}

	openRun()
	<-run.Done()
	st := run.Status()
	if st.State != RunDone {
		t.Fatalf("run ended %s: %+v", st.State, st.Cells)
	}
	if c := st.Cells[0][1]; c.State != CellSkipped {
		t.Errorf("run %s with cell (0,1) %s, terminal %d/%d; want the cell still skipped",
			st.State, c.State, st.TerminalCells, st.PlannedCells)
	}
	openUpgrade()
	if !answered {
		upErr = <-upgraded
	}
	if !errors.Is(upErr, ErrRunRunning) {
		t.Errorf("upgrade on a running run = %v, want ErrRunRunning", upErr)
	}

	v, err := run.UpgradeCell(0, 1)
	if err != nil || v.State != CellDone {
		t.Fatalf("upgrade on the finished run = %+v, %v; want done", v, err)
	}
	if st := run.Status(); st.ExactCells != 2 || st.SkippedCells != 0 || st.TerminalCells != 2 {
		t.Errorf("exact/skipped/terminal = %d/%d/%d after the upgrade, want 2/0/2",
			st.ExactCells, st.SkippedCells, st.TerminalCells)
	}
}
