package server

// Progressive-matrix endpoint tests and the run-level pinning regression:
// a retention sweeper hammering a tiny TTL must never evict a dataset out
// from under a started matrix run, long-polls must follow the run's version
// counter, and the progressive objectives must round-trip through the HTTP
// surface.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/pathology"
	"repro/internal/retention"
	"repro/internal/sched"
	"repro/internal/store"
)

// ingestShifted stores a generated variant whose polygons are translated by
// (dx, dy): same tile keys as an unshifted variant of the same image, but a
// disjoint spatial cluster, so cross-cluster matrix cells carry bound 0.
func ingestShifted(t *testing.T, st *store.Store, image string, seed int64, tiles int, dx, dy int32) *store.Manifest {
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
	man, err := st.Ingest(image, its)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return man
}

// TestMatrixRunPinsDatasets is the run-level pinning regression: a matrix
// run pins all K datasets when it starts, so a TTL sweeper striking in the
// window between run start and a cell's own submission-time pin cannot
// evict a dataset the plan still needs. Pre-fix, later cells failed with
// "dataset not found" whenever a sweep won that race.
func TestMatrixRunPinsDatasets(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		ids = append(ids, ingestSpec(t, st, "pinned", seed, 2).ID)
	}
	// One device serializes the 6 cells, stretching the start-to-submission
	// window the pins must cover.
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})

	resp, body := postJSON(t, ts.URL+"/matrix", MatrixRequest{Datasets: ids, Name: "pins"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("matrix submit = %d: %s", resp.StatusCode, body)
	}
	var mst compare.Status
	if err := json.Unmarshal(body, &mst); err != nil {
		t.Fatal(err)
	}

	// From the moment the run exists, hammer the store with a sweeper whose
	// TTL has every unpinned dataset instantly overdue.
	engine := retention.New(retention.Config{Store: st,
		Policy: retention.Policy{TTL: time.Millisecond, SweepInterval: 50 * time.Millisecond}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				engine.Sweep()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	deadline := time.Now().Add(time.Minute)
	for mst.State == compare.RunRunning {
		if time.Now().After(deadline) {
			t.Fatalf("matrix stuck: %+v", mst)
		}
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/matrix/"+mst.ID, &mst)
	}
	if mst.State != compare.RunDone {
		t.Fatalf("matrix ended %s under a concurrent sweeper: %+v", mst.State, mst.Cells)
	}
	for i := range mst.Cells {
		for j := range mst.Cells[i] {
			if i != j && mst.Cells[i][j].State != compare.CellDone {
				t.Errorf("cell [%d][%d] = %q (%s); a pinned dataset was lost mid-run",
					i, j, mst.Cells[i][j].State, mst.Cells[i][j].Error)
			}
		}
	}

	// Finalize released the run-level pins: the same sweeper now reclaims
	// all four datasets. This is what catches a future pin leak.
	evictDeadline := time.Now().Add(10 * time.Second)
	for st.Len() > 0 {
		if time.Now().After(evictDeadline) {
			t.Fatalf("%d datasets never evicted after the run finished (pins=%d)",
				st.Len(), st.PinnedCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMatrixRunMetrics: matrix starts are counted once, by
// sccgd_matrix_runs_total, and finished runs leave the live-group gauge. No
// second "ever started" series is derived from the manager's run table.
func TestMatrixRunMetrics(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	ids := []string{ingestSpec(t, st, "counted", 1, 1).ID, ingestSpec(t, st, "counted", 2, 1).ID}
	srv, _, ts := newTestServer(t, sched.Config{}, Options{Store: st})
	for n := 0; n < 2; n++ {
		resp, body := postJSON(t, ts.URL+"/matrix", MatrixRequest{Datasets: ids})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("matrix submit = %d: %s", resp.StatusCode, body)
		}
		var mst compare.Status
		if err := json.Unmarshal(body, &mst); err != nil {
			t.Fatal(err)
		}
		run, _ := srv.matrix.Get(mst.ID)
		select {
		case <-run.Done():
		case <-time.After(time.Minute):
			t.Fatalf("matrix %s did not finish", mst.ID)
		}
		if got := run.Status().State; got != compare.RunDone {
			t.Fatalf("matrix %s ended %s", mst.ID, got)
		}
	}

	_, raw := doRequest(t, http.MethodGet, ts.URL+"/metrics")
	text := string(raw)
	for _, want := range []string{"\nsccgd_matrix_runs_total 2\n", "\nsccgd_matrix_runs_active 0\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", strings.TrimSpace(want), text)
		}
	}
	if strings.Contains(text, "sccgd_groups_total") {
		t.Errorf("sccgd_groups_total is still exposed:\n%s", text)
	}
}

// TestMatrixProgressiveEndpoints drives a top-k run over a spatially skewed
// corpus through the HTTP surface: progressive fields round-trip, the
// version-based long-poll converges on the terminal state, cross-cluster
// cells come back skipped with bound 0, and a body naming a field the run spec
// does not have is a 400.
func TestMatrixProgressiveEndpoints(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	const shift = 1 << 20
	near := []string{
		ingestShifted(t, st, "slideP", 1, 2, 0, 0).ID,
		ingestShifted(t, st, "slideP", 2, 2, 0, 0).ID,
	}
	far := []string{
		ingestShifted(t, st, "slideP", 3, 2, shift, shift).ID,
		ingestShifted(t, st, "slideP", 4, 2, shift, shift).ID,
	}
	all := append(append([]string(nil), near...), far...)
	_, _, ts := newTestServer(t, sched.Config{Devices: 2}, Options{Store: st})

	resp, body := postJSON(t, ts.URL+"/matrix",
		MatrixRequest{Datasets: all, Name: "topk", TopK: 2})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("progressive submit = %d: %s", resp.StatusCode, body)
	}
	var mst compare.Status
	if err := json.Unmarshal(body, &mst); err != nil {
		t.Fatal(err)
	}
	if mst.TopK != 2 {
		t.Fatalf("top_k echo = %d, want 2", mst.TopK)
	}

	// Long-poll to terminal: each round passes the last seen version and
	// must come back with a strictly newer one (or the terminal state).
	deadline := time.Now().Add(time.Minute)
	for mst.State == compare.RunRunning {
		if time.Now().After(deadline) {
			t.Fatalf("matrix stuck: %+v", mst)
		}
		prev := mst.Version
		url := fmt.Sprintf("%s/matrix/%s?wait=1&since=%d", ts.URL, mst.ID, prev)
		if r := getJSON(t, url, &mst); r.StatusCode != http.StatusOK {
			t.Fatalf("long-poll = %d", r.StatusCode)
		}
		if mst.State == compare.RunRunning && mst.Version <= prev {
			t.Fatalf("long-poll returned version %d ≤ since %d on a running run", mst.Version, prev)
		}
	}
	if mst.State != compare.RunDone {
		t.Fatalf("matrix ended %s: %+v", mst.State, mst.Cells)
	}

	// The skew decides the split: 2 within-cluster cells are exact, the 4
	// cross-cluster cells are provably empty (bound 0) and skipped.
	if mst.ExactCells != 2 || mst.SkippedCells != 4 || mst.BoundedCells != 0 {
		t.Fatalf("exact/skipped/bounded = %d/%d/%d, want 2/4/0",
			mst.ExactCells, mst.SkippedCells, mst.BoundedCells)
	}
	if mst.PlanTrace == nil || mst.PlanTrace.Stages["bound"] < 0 {
		t.Fatalf("plan trace missing: %+v", mst.PlanTrace)
	}
	for i := range mst.Cells {
		for j := range mst.Cells[i] {
			c := mst.Cells[i][j]
			if i == j {
				continue
			}
			if c.Bound == nil {
				t.Fatalf("cell [%d][%d] has no bound on a progressive run", i, j)
			}
			if c.State == compare.CellSkipped && *c.Bound != 0 {
				t.Errorf("skipped cell [%d][%d] carries bound %v, want 0", i, j, *c.Bound)
			}
			if c.State == compare.CellDone && c.Similarity-*c.Bound > 1e-9 {
				t.Errorf("cell [%d][%d] similarity %v exceeds its bound %v", i, j, c.Similarity, *c.Bound)
			}
		}
	}

	// A long-poll on a terminal run returns immediately even with a stale
	// ?since far ahead of the version counter.
	start := time.Now()
	var again compare.Status
	getJSON(t, fmt.Sprintf("%s/matrix/%s?wait=1&since=%d", ts.URL, mst.ID, mst.Version+1000), &again)
	if again.State != compare.RunDone {
		t.Fatalf("terminal long-poll state = %s", again.State)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("terminal long-poll blocked instead of returning the final state")
	}

	// min_similarity alone (no top_k) skips exactly the provably-empty
	// cross-cluster cells.
	resp, body = postJSON(t, ts.URL+"/matrix",
		MatrixRequest{Datasets: all, MinSimilarity: 0.01})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("min_similarity submit = %d: %s", resp.StatusCode, body)
	}
	var msim compare.Status
	if err := json.Unmarshal(body, &msim); err != nil {
		t.Fatal(err)
	}
	for msim.State == compare.RunRunning {
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/matrix/"+msim.ID, &msim)
	}
	if msim.State != compare.RunDone || msim.SkippedCells != 4 {
		t.Fatalf("min_similarity run = %s with %d skipped, want done/4", msim.State, msim.SkippedCells)
	}

	// Bipartite axes build an oriented rows×cols grid.
	resp, body = postJSON(t, ts.URL+"/matrix",
		MatrixRequest{SetA: near[:1], SetB: []string{near[1], far[0]}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bipartite submit = %d: %s", resp.StatusCode, body)
	}
	var bst compare.Status
	if err := json.Unmarshal(body, &bst); err != nil {
		t.Fatal(err)
	}
	for bst.State == compare.RunRunning {
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/matrix/"+bst.ID, &bst)
	}
	if bst.State != compare.RunDone {
		t.Fatalf("bipartite run ended %s: %+v", bst.State, bst.Cells)
	}
	if len(bst.Cells) != 1 || len(bst.Cells[0]) != 2 {
		t.Fatalf("bipartite grid is %dx%d, want 1x2", len(bst.Cells), len(bst.Cells[0]))
	}
	if len(bst.SetA) != 1 || len(bst.SetB) != 2 || len(bst.Datasets) != 0 {
		t.Fatalf("bipartite axes echo = %v / %v / %v", bst.SetA, bst.SetB, bst.Datasets)
	}

	// Validation at the HTTP boundary.
	for i, bad := range []any{
		MatrixRequest{Datasets: all, SetA: near},                  // mixed axes
		MatrixRequest{SetA: near},                                 // missing set_b
		MatrixRequest{SetA: near, SetB: []string{"nothex"}},       // malformed id
		MatrixRequest{Datasets: all, TopK: -1},                    // negative top_k
		MatrixRequest{Datasets: all, MinSimilarity: 1.5},          // out-of-range threshold
		MatrixRequest{SetA: near, SetB: []string{far[0], far[0]}}, // duplicate in one axis
		// A field the run spec does not have is refused, not ignored.
		json.RawMessage(fmt.Sprintf(`{"datasets":[%q,%q],"estimate":true}`, near[0], near[1])),
	} {
		if r, raw := postJSON(t, ts.URL+"/matrix", bad); r.StatusCode != http.StatusBadRequest {
			t.Errorf("matrix row %d = %d, want 400: %s", i, r.StatusCode, raw)
		}
	}
	unknown := strings.Repeat("ab", 32)
	if r, _ := postJSON(t, ts.URL+"/matrix", MatrixRequest{SetA: near, SetB: []string{unknown}}); r.StatusCode != http.StatusNotFound {
		t.Errorf("bipartite over unknown dataset should 404")
	}
}
