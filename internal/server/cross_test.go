package server

// Tests for the cross-dataset comparison surface: dataset_a/dataset_b jobs,
// the matrix endpoints, tile-range reads, and the persisted result cache.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/sched"
	"repro/internal/store"
)

func testStoreAt(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// ingestSpec stores a generated dataset; image is the tile key namespace.
func ingestSpec(t *testing.T, st *store.Store, image string, seed int64, tiles int) *store.Manifest {
	t.Helper()
	spec := pathology.Representative()
	spec.Name = image
	spec.Seed = seed
	spec.Tiles = tiles
	man, err := pathologytest.Ingest(st, pathology.Generate(spec))
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	return man
}

// TestCrossJobSelfMatchesSingleDataset: a dataset_a/dataset_b job over the
// same stored content is answered bit-identically to — and, because the
// cache keys coincide, by the very same job as — the single-dataset job.
func TestCrossJobSelfMatchesSingleDataset(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	man := ingestSpec(t, st, "self", 101, 3)
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})

	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single submit = %d: %s", resp.StatusCode, body)
	}
	var single JobResponse
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	singleDone := pollDone(t, ts.URL, single.ID)
	if singleDone.State != "done" {
		t.Fatalf("single job ended %s: %s", singleDone.State, singleDone.Error)
	}

	resp, body = postJSON(t, ts.URL+"/jobs", JobRequest{DatasetA: man.ID, DatasetB: man.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cross self submit = %d, want 200 cache hit: %s", resp.StatusCode, body)
	}
	var cross JobResponse
	if err := json.Unmarshal(body, &cross); err != nil {
		t.Fatal(err)
	}
	if !cross.Cached || cross.ID != single.ID {
		t.Fatalf("cross self = %+v, want cache hit on job %s", cross, single.ID)
	}
	if cross.Report == nil || cross.Report.Similarity != singleDone.Report.Similarity {
		t.Fatalf("cross self report %+v != single %+v", cross.Report, singleDone.Report)
	}
}

// TestCrossJobPartialOverlap: unmatched tiles are reported in the job's
// cross block; disjoint datasets are rejected with the counts.
func TestCrossJobPartialOverlap(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	spec := pathology.Representative()
	spec.Name = "overlap"
	spec.Tiles = 4
	d := pathology.Generate(spec)
	all := make([]store.IngestTile, len(d.Pairs))
	for i, tp := range d.Pairs {
		all[i] = store.IngestTile{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	manFull, err := st.Ingest("full", all)
	if err != nil {
		t.Fatal(err)
	}
	manHalf, err := st.Ingest("half", all[:2])
	if err != nil {
		t.Fatal(err)
	}
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})

	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetA: manFull.ID, DatasetB: manHalf.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cross submit = %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Cross == nil {
		t.Fatal("cross job response carries no cross block")
	}
	if jr.Cross.MatchedTiles != 2 || jr.Cross.UnmatchedA != 2 || jr.Cross.UnmatchedB != 0 {
		t.Fatalf("cross block = %+v, want 2 matched, 2 unmatched in A", jr.Cross)
	}
	if len(jr.Cross.UnmatchedASample) != 2 {
		t.Fatalf("unmatched sample = %+v", jr.Cross.UnmatchedASample)
	}
	if jr.Tiles != 2 {
		t.Fatalf("job tiles = %d, want the 2 matched pairs", jr.Tiles)
	}
	done := pollDone(t, ts.URL, jr.ID)
	if done.State != "done" {
		t.Fatalf("cross job ended %s: %s", done.State, done.Error)
	}
	if done.Cross == nil || done.Cross.UnmatchedA != 2 {
		t.Fatalf("polled job lost its cross block: %+v", done.Cross)
	}

	// Disjoint datasets: rejected up front, with the mismatch reported.
	manOther := ingestSpec(t, st, "otherslide", 999, 2)
	resp, body = postJSON(t, ts.URL+"/jobs", JobRequest{DatasetA: manHalf.ID, DatasetB: manOther.ID})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("disjoint cross = %d, want 422: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "share no tile keys") {
		t.Fatalf("disjoint cross error %s does not report the mismatch", body)
	}
}

// TestCrossRequestValidation: half-set pairs and malformed IDs are 400s.
func TestCrossRequestValidation(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	_, _, ts := newTestServer(t, sched.Config{}, Options{Store: st})
	valid := strings.Repeat("ab", 32)
	for _, body := range []string{
		`{"dataset_a":"` + valid + `"}`,
		`{"dataset_b":"` + valid + `"}`,
		`{"dataset_a":"xyz","dataset_b":"` + valid + `"}`,
		`{"dataset_a":"` + valid + `","dataset_b":"` + valid + `","corpus":"x"}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/jobs", json.RawMessage(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400: %s", body, resp.StatusCode, raw)
		}
	}
}

// TestTileReadEndpoint: GET /datasets/{id}/tiles/{n} serves the stored
// tile's canonical polygon text, digest-verified.
func TestTileReadEndpoint(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	spec := pathology.Representative()
	spec.Name = "tileread"
	spec.Tiles = 2
	d := pathology.Generate(spec)
	man, err := pathologytest.Ingest(st, d)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ts := newTestServer(t, sched.Config{}, Options{Store: st})

	var tp TilePayload
	if resp := getJSON(t, ts.URL+"/datasets/"+man.ID+"/tiles/1", &tp); resp.StatusCode != http.StatusOK {
		t.Fatalf("tile read status = %d", resp.StatusCode)
	}
	// The stored tile order is canonical (image, tile); spec tiles are
	// already in that order here.
	want := d.Pairs[1]
	if tp.Image != want.Image || tp.Tile != want.Index {
		t.Fatalf("tile read keyed %s/%d, want %s/%d", tp.Image, tp.Tile, want.Image, want.Index)
	}
	if string(tp.RawA) != string(parser.Encode(want.A)) || string(tp.RawB) != string(parser.Encode(want.B)) {
		t.Fatal("tile read text differs from canonical encoding of the ingested polygons")
	}
	if tp.PolygonsA != len(want.A) || tp.PolygonsB != len(want.B) {
		t.Fatalf("tile read counts %d/%d, want %d/%d", tp.PolygonsA, tp.PolygonsB, len(want.A), len(want.B))
	}

	if resp := getJSON(t, ts.URL+"/datasets/"+man.ID+"/tiles/99", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("out-of-range tile = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/datasets/"+man.ID+"/tiles/x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric tile = %d, want 400", resp.StatusCode)
	}
	bogus := strings.Repeat("00", 32)
	if resp := getJSON(t, ts.URL+"/datasets/"+bogus+"/tiles/0", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset tile read = %d, want 404", resp.StatusCode)
	}
}

// TestPersistedCacheAcrossRestart: a completed job's report is written
// beside the manifests and answers the same content from a fresh server
// (new scheduler, same store directory) without any new submission; a
// corrupted entry is skipped, never served.
func TestPersistedCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	man := ingestSpec(t, st, "persist", 77, 2)

	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})
	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	first := pollDone(t, ts.URL, jr.ID)
	if first.State != "done" {
		t.Fatalf("job ended %s: %s", first.State, first.Error)
	}
	// The completion watcher adopts the report after the job completes.
	waitPersisted(t, dir, 1)

	// "Restart": a fresh scheduler and server over the same directory.
	st2 := testStoreAt(t, dir)
	srv2, sc2, ts2 := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st2})
	resp, body = postJSON(t, ts2.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart submit = %d, want 200 persisted hit: %s", resp.StatusCode, body)
	}
	var hit JobResponse
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.State != "done" || hit.Report == nil {
		t.Fatalf("post-restart response = %+v, want cached done report", hit)
	}
	if hit.Report.Similarity != first.Report.Similarity || hit.Report.Intersecting != first.Report.Intersecting {
		t.Fatalf("persisted report (%.17g, %d) != original (%.17g, %d); must be exact",
			hit.Report.Similarity, hit.Report.Intersecting,
			first.Report.Similarity, first.Report.Intersecting)
	}
	if got := sc2.Stats().Submitted; got != 0 {
		t.Fatalf("persisted hit still submitted %d jobs", got)
	}
	_ = srv2

	// Corrupt every entry record, re-framed with a fresh checksum so decoding
	// and validate must catch it: a third server must skip them and recompute.
	entries := 0
	rewriteLog(t, dir, func(kind byte, payload []byte) []byte {
		if kind != recEntry {
			return payload
		}
		entries++
		// Tamper with the report body, keeping valid JSON.
		tampered := strings.Replace(string(payload), `"Intersecting":`, `"Intersecting": 1e`, 1)
		if tampered == string(payload) {
			tampered = "{" + string(payload) // not JSON at all
		}
		return []byte(tampered)
	})
	if entries == 0 {
		t.Fatal("the results log holds no entry record")
	}
	st3 := testStoreAt(t, dir)
	_, _, ts3 := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st3})
	resp, body = postJSON(t, ts3.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit over corrupt cache = %d, want 202 recompute: %s", resp.StatusCode, body)
	}
}

// TestMatrixEndpoints: POST /matrix over 3 stored datasets, poll to done,
// verify symmetry and per-cell agreement with pairwise jobs; repeat run is
// fully cache-answered; DELETE on a terminal run conflicts.
func TestMatrixEndpoints(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	ids := []string{
		ingestSpec(t, st, "mx", 1, 2).ID,
		ingestSpec(t, st, "mx", 2, 2).ID,
		ingestSpec(t, st, "mx", 3, 2).ID,
	}
	_, _, ts := newTestServer(t, sched.Config{Devices: 2}, Options{Store: st})

	resp, body := postJSON(t, ts.URL+"/matrix", MatrixRequest{Datasets: ids, Name: "endpoints"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("matrix submit = %d: %s", resp.StatusCode, body)
	}
	var mst compare.Status
	if err := json.Unmarshal(body, &mst); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for mst.State == compare.RunRunning {
		if time.Now().After(deadline) {
			t.Fatalf("matrix stuck: %+v", mst)
		}
		time.Sleep(10 * time.Millisecond)
		if r := getJSON(t, ts.URL+"/matrix/"+mst.ID, &mst); r.StatusCode != http.StatusOK {
			t.Fatalf("matrix poll = %d", r.StatusCode)
		}
	}
	if mst.State != compare.RunDone {
		t.Fatalf("matrix ended %s: %+v", mst.State, mst.Cells)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			c := mst.Cells[i][j]
			if i == j {
				if c.State != compare.CellSelf {
					t.Errorf("diagonal [%d][%d] = %q", i, j, c.State)
				}
				continue
			}
			if c.State != compare.CellDone {
				t.Fatalf("cell [%d][%d] = %q: %s", i, j, c.State, c.Error)
			}
			if c.Similarity != mst.Cells[j][i].Similarity {
				t.Errorf("matrix asymmetric at [%d][%d]", i, j)
			}
			// The cell must match an independent pairwise job exactly (the
			// cache serves the identical job, so this also exercises the
			// cross cache key).
			a, b := ids[i], ids[j]
			if i > j {
				a, b = ids[j], ids[i]
			}
			r2, body2 := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetA: a, DatasetB: b})
			if r2.StatusCode != http.StatusOK {
				t.Fatalf("pairwise resubmit = %d (want cache hit): %s", r2.StatusCode, body2)
			}
			var pj JobResponse
			if err := json.Unmarshal(body2, &pj); err != nil {
				t.Fatal(err)
			}
			if pj.Report == nil || pj.Report.Similarity != c.Similarity {
				t.Errorf("cell [%d][%d] similarity %v != pairwise job %+v", i, j, c.Similarity, pj.Report)
			}
		}
	}
	if mst.ExactCells != 3 || mst.TerminalCells != 3 {
		t.Errorf("matrix exact/terminal cells = %d/%d, want 3/3", mst.ExactCells, mst.TerminalCells)
	}

	// Repeat run: every cell served from cache, no new scheduler jobs.
	resp, body = postJSON(t, ts.URL+"/matrix", MatrixRequest{Datasets: ids})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat matrix = %d: %s", resp.StatusCode, body)
	}
	var again compare.Status
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	for again.State == compare.RunRunning {
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/matrix/"+again.ID, &again)
	}
	for i := range again.Cells {
		for j := range again.Cells[i] {
			if i != j && !again.Cells[i][j].Cached {
				t.Errorf("repeat matrix cell [%d][%d] not cached: %+v", i, j, again.Cells[i][j])
			}
		}
	}

	// Terminal runs conflict on cancel; unknown IDs 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/matrix/"+mst.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Errorf("cancel terminal matrix = %d, want 409", dresp.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/matrix/mx-999999", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown matrix = %d, want 404", r.StatusCode)
	}

	var list struct {
		Matrices []compare.Status `json:"matrices"`
	}
	getJSON(t, ts.URL+"/matrix", &list)
	if len(list.Matrices) != 2 {
		t.Errorf("matrix list has %d runs, want 2", len(list.Matrices))
	}

	// Validation: duplicate and malformed IDs.
	for _, bad := range []MatrixRequest{
		{Datasets: []string{ids[0]}},
		{Datasets: []string{ids[0], ids[0]}},
		{Datasets: []string{ids[0], "nothex"}},
	} {
		r, raw := postJSON(t, ts.URL+"/matrix", bad)
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("matrix %+v = %d, want 400: %s", bad, r.StatusCode, raw)
		}
	}
	unknown := strings.Repeat("ef", 32)
	if r, _ := postJSON(t, ts.URL+"/matrix", MatrixRequest{Datasets: []string{ids[0], unknown}}); r.StatusCode != http.StatusNotFound {
		t.Errorf("matrix over unknown dataset = %d, want 404", r.StatusCode)
	}
}
