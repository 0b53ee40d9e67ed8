package server

// White-box tests of the result store: one standard for everything that
// enters it, and one cascade over every tier.

import (
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

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

			peer := newResultStore(128, 0, st, nil, slog.Default())
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
			boot := newResultStore(128, 0, st, nil, slog.Default())
			if _, durable := boot.counts(); (durable == 0) != tc.reject {
				t.Fatalf("boot indexed %d entries, want rejection %v", durable, tc.reject)
			}
		})
	}
}

// TestDropDatasetCoversEveryTier: one dataset delete removes the dataset's
// live slot, its own and its cross durable entries (files included) and the
// spec alias resolving to it, leaves the other dataset's untouched, and
// reports the total to sccgd_cache_cascade_dropped_total.
func TestDropDatasetCoversEveryTier(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	gone := ingestSpec(t, st, "gone", 41, 1)
	kept := ingestSpec(t, st, "kept", 42, 1)
	srv, _, _ := newTestServer(t, sched.Config{}, Options{Store: st})
	rs := srv.results

	rs.record(datasetKey(gone.ID), "job-gone", nil)
	rs.record(datasetKey(kept.ID), "job-kept", nil)
	for _, key := range []string{
		datasetKey(gone.ID), crossKey(gone.ID, kept.ID), crossKey(kept.ID, gone.ID), datasetKey(kept.ID),
	} {
		if _, err := rs.adopt(foldedEntry(key), key); err != nil {
			t.Fatal(err)
		}
	}
	rs.setAlias("spec-gone", gone.ID)
	rs.setAlias("spec-kept", kept.ID)

	if err := st.Delete(gone.ID); err != nil {
		t.Fatal(err)
	}
	if live, durable := rs.counts(); live != 1 || durable != 1 {
		t.Fatalf("after the cascade: %d live, %d durable, want the kept dataset's 1 and 1", live, durable)
	}
	if n := persistedFiles(t, dir); n != 1 {
		t.Fatalf("%d entry files after the cascade, want 1", n)
	}
	if _, ok := rs.alias("spec-gone"); ok {
		t.Error("alias to the deleted dataset survived")
	}
	if id, ok := rs.alias("spec-kept"); !ok || id != kept.ID {
		t.Error("alias to the kept dataset was dropped")
	}
	if got := srv.cascades.Value(); got != 5 {
		t.Fatalf("sccgd_cache_cascade_dropped_total = %d, want 5 (1 live + 3 durable + 1 alias)", got)
	}
}
