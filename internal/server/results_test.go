package server

// White-box tests of the result store: one standard for everything that
// enters it, one cascade over the table, and single-flight.

import (
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

// foldedEntry is an entry whose two tile partials fold exactly to its
// aggregate, the way a pipeline report does.
func foldedEntry(key string) resultEntry {
	tiles := []pipeline.TileRatio{
		{Image: "img", Tile: 0, RatioSum: 0.75, Intersecting: 1},
		{Image: "img", Tile: 1, RatioSum: 1.25, Intersecting: 2},
	}
	sum := tiles[0].RatioSum + tiles[1].RatioSum
	return resultEntry{Key: key, Name: "folded", Saved: time.Now().UTC(), Report: pipeline.Result{
		Similarity: sum / 3, RatioSum: sum, Intersecting: 3, Candidates: 4, TileRatios: tiles,
	}}
}

// TestAdoptRacingDelete: a finished report entering the store while its
// dataset is deleted never leaves an entry or a file behind, whichever side
// wins — the liveness gate and the cascade take the same lock, and the
// post-rename reconcile removes a file whose entry the cascade already took.
func TestAdoptRacingDelete(t *testing.T) {
	for _, tc := range []struct {
		name string
		race func(adopt, del func())
	}{
		{"delete first", func(adopt, del func()) { del(); adopt() }},
		{"adopt first", func(adopt, del func()) { adopt(); del() }},
		{"concurrent", func(adopt, del func()) {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); adopt() }()
			go func() { defer wg.Done(); del() }()
			wg.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := testStoreAt(t, dir)
			srv, _, _ := newTestServer(t, sched.Config{}, Options{Store: st})
			for round := 0; round < 20; round++ {
				man := ingestSpec(t, st, "race", int64(round), 1)
				key := datasetKey(man.ID)
				tc.race(func() {
					if _, err := srv.results.adopt(foldedEntry(key), key); err != nil {
						t.Error(err)
					}
				}, func() {
					if err := st.Delete(man.ID); err != nil {
						t.Error(err)
					}
				})
				if _, _, ok := srv.results.lookup(key); ok {
					t.Fatalf("round %d: result store kept a report for a deleted dataset", round)
				}
				if n := persistedFiles(t, dir); n != 0 {
					t.Fatalf("round %d: %d entry file(s) outlived the dataset", round, n)
				}
			}
		})
	}
}

// TestOneValidateForPeersAndBoot: an entry that is wrong — filed under
// another comparison's key, tile partials that do not re-fold, partials out
// of canonical order — is refused the same way whether a peer sent it
// (adopt) or it was found on disk at boot (load).
func TestOneValidateForPeersAndBoot(t *testing.T) {
	const key = "k-valid"
	for _, tc := range []struct {
		name    string
		corrupt func(e *resultEntry)
		reject  bool
	}{
		{"intact", func(e *resultEntry) {}, false},
		{"wrong key", func(e *resultEntry) { e.Key = "k-other" }, true},
		{"partial does not re-fold", func(e *resultEntry) { e.Report.TileRatios[1].RatioSum += 1e-12 }, true},
		{"tiles out of order", func(e *resultEntry) {
			tr := e.Report.TileRatios
			tr[0], tr[1] = tr[1], tr[0]
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := testStoreAt(t, dir)
			e := foldedEntry(key)
			tc.corrupt(&e)

			peer := newResultStore(0, st, nil, new(metrics.Counter), slog.Default())
			_, err := peer.adopt(e, key)
			if (err != nil) != tc.reject {
				t.Fatalf("adopt error = %v, want rejection %v", err, tc.reject)
			}
			if _, _, ok := peer.lookup(key); ok == tc.reject {
				t.Fatalf("after adopt, lookup hit = %v", ok)
			}

			// The same bytes as a boot file in key's slot.
			peer.clear()
			raw, err := json.Marshal(&e)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "cache", entryFile(key)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			boot := newResultStore(0, st, nil, new(metrics.Counter), slog.Default())
			if _, durable := boot.counts(); (durable == 0) != tc.reject {
				t.Fatalf("boot indexed %d entries, want rejection %v", durable, tc.reject)
			}
		})
	}
}

// TestLoadSweepsCrashedTempFiles: a crash between writeFileSynced's create
// and rename leaves a tmp-* file in the cache dir, and the next boot removes
// it while keeping the entry files beside it.
func TestLoadSweepsCrashedTempFiles(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	cache := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cache, 0o755); err != nil {
		t.Fatal(err)
	}
	e := foldedEntry("k-kept")
	raw, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileSynced(cache, filepath.Join(cache, entryFile(e.Key)), raw); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tmp-123", "tmp-456.json"} {
		if err := os.WriteFile(filepath.Join(cache, name), raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rs := newResultStore(0, st, nil, new(metrics.Counter), slog.Default())
	if _, durable := rs.counts(); durable != 1 {
		t.Fatalf("boot indexed %d entries, want 1", durable)
	}
	left, err := filepath.Glob(filepath.Join(cache, "tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("boot left temp files %v", left)
	}
}

// TestDropDatasetCoversEveryTier: one dataset delete removes the slots of
// the dataset's own key and its cross keys (entry files included), leaves
// the other dataset's untouched, and reports the keys to
// sccgd_cache_cascade_dropped_total.
func TestDropDatasetCoversEveryTier(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	gone := ingestSpec(t, st, "gone", 41, 1)
	kept := ingestSpec(t, st, "kept", 42, 1)
	srv, _, _ := newTestServer(t, sched.Config{}, Options{Store: st})
	rs := srv.results

	rs.record(datasetKey(gone.ID), "job-gone")
	rs.record(datasetKey(kept.ID), "job-kept")
	for _, key := range []string{
		datasetKey(gone.ID), crossKey(gone.ID, kept.ID), crossKey(kept.ID, gone.ID), datasetKey(kept.ID),
	} {
		if _, err := rs.adopt(foldedEntry(key), key); err != nil {
			t.Fatal(err)
		}
	}

	if err := st.Delete(gone.ID); err != nil {
		t.Fatal(err)
	}
	if slots, entries := rs.counts(); slots != 1 || entries != 1 {
		t.Fatalf("after the cascade: %d slots, %d entries, want the kept dataset's 1 and 1", slots, entries)
	}
	if n := persistedFiles(t, dir); n != 1 {
		t.Fatalf("%d entry files after the cascade, want 1", n)
	}
	if got := srv.cascades.Value(); got != 3 {
		t.Fatalf("sccgd_cache_cascade_dropped_total = %d, want 3 (the keys)", got)
	}
}

// TestSingleFlightDuplicateAttaches: a duplicate submission of a key whose
// job is still queued attaches to that job — 200, cached, the same job ID,
// no new scheduler job — and both see the same finished report.
func TestSingleFlightDuplicateAttaches(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	hold := ingestSpec(t, st, "hold", 61, 1)
	x := ingestSpec(t, st, "flight", 62, 1)
	_, sc, ts := newTestServer(t, sched.Config{Workers: 1}, Options{Store: st})

	// A gated job holds the one worker, so X queues behind it.
	ds, err := st.OpenDataset(hold.ID)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	t.Cleanup(open)
	gated := &gatedStoreSource{src: ds.Source(), release: release, entered: make(chan struct{})}
	if _, err := sc.SubmitJob(gated, sched.JobOpts{Name: "hold"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gated.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated job never started")
	}

	submit := func(want int) JobResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: x.ID})
		if resp.StatusCode != want {
			t.Fatalf("submit = %d, want %d: %s", resp.StatusCode, want, body)
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		return jr
	}
	first := submit(http.StatusAccepted)
	submitted := sc.Stats().Submitted
	dup := submit(http.StatusOK)
	if !dup.Cached || dup.ID != first.ID {
		t.Fatalf("duplicate answered %+v, want cached job %s", dup, first.ID)
	}
	if got := sc.Stats().Submitted; got != submitted {
		t.Fatalf("duplicate moved the scheduler's Submitted count %d -> %d", submitted, got)
	}

	open()
	a, b := pollDone(t, ts.URL, first.ID), pollDone(t, ts.URL, dup.ID)
	if a.State != "done" || b.State != "done" {
		t.Fatalf("jobs ended %s and %s", a.State, b.State)
	}
	if math.Float64bits(a.Report.Similarity) != math.Float64bits(b.Report.Similarity) ||
		a.Report.Intersecting != b.Report.Intersecting || a.Report.Candidates != b.Report.Candidates {
		t.Fatalf("reports differ: %+v vs %+v", a.Report, b.Report)
	}
}
