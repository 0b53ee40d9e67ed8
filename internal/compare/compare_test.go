package compare

import (
	"context"
	"testing"
	"time"

	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/sched"
	"repro/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

// ingestVariant stores a generated dataset whose tile keys come from name
// (the image label) and whose content varies with seed.
func ingestVariant(t *testing.T, s *store.Store, image string, seed int64, tiles int) *store.Manifest {
	t.Helper()
	spec := pathology.Representative()
	spec.Name = image
	spec.Seed = seed
	spec.Tiles = tiles
	man, err := pathologytest.Ingest(s, pathology.Generate(spec))
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	return man
}

func openDataset(t *testing.T, s *store.Store, id string) *store.Dataset {
	t.Helper()
	ds, err := s.OpenDataset(id)
	if err != nil {
		t.Fatalf("OpenDataset(%s): %v", id, err)
	}
	return ds
}

func waitJob(t *testing.T, sc *sched.Scheduler, id string) sched.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := sc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

// TestMatchManifests checks the merge join over partially overlapping tile
// indexes: the intersection is paired, everything else is reported on the
// correct side, nothing is dropped.
func TestMatchManifests(t *testing.T) {
	s := testStore(t)
	spec := pathology.Representative()
	spec.Tiles = 5
	d := pathology.Generate(spec)

	ingest := func(name string, lo, hi int) *store.Manifest {
		tiles := make([]store.IngestTile, 0, hi-lo)
		for _, tp := range d.Pairs[lo:hi] {
			tiles = append(tiles, store.IngestTile{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B})
		}
		man, err := s.Ingest(name, tiles)
		if err != nil {
			t.Fatalf("Ingest %s: %v", name, err)
		}
		return man
	}
	manA := ingest("front", 0, 4) // tiles 0..3
	manB := ingest("back", 2, 5)  // tiles 2..4

	m := MatchManifests(manA, manB)
	if len(m.Pairs) != 2 {
		t.Fatalf("matched %d pairs, want 2 (tiles 2,3)", len(m.Pairs))
	}
	for _, p := range m.Pairs {
		ka, kb := manA.Tiles[p.A], manB.Tiles[p.B]
		if ka.Image != kb.Image || ka.Tile != kb.Tile {
			t.Fatalf("pair joins tile %s/%d with %s/%d", ka.Image, ka.Tile, kb.Image, kb.Tile)
		}
	}
	if len(m.OnlyA) != 2 || m.OnlyA[0].Tile != 0 || m.OnlyA[1].Tile != 1 {
		t.Fatalf("OnlyA = %+v, want tiles 0,1", m.OnlyA)
	}
	if len(m.OnlyB) != 1 || m.OnlyB[0].Tile != 4 {
		t.Fatalf("OnlyB = %+v, want tile 4", m.OnlyB)
	}
	if got := len(m.Pairs) + len(m.OnlyA); got != len(manA.Tiles) {
		t.Fatalf("match accounts for %d of A's %d tiles", got, len(manA.Tiles))
	}
	if got := len(m.Pairs) + len(m.OnlyB); got != len(manB.Tiles) {
		t.Fatalf("match accounts for %d of B's %d tiles", got, len(manB.Tiles))
	}
}

// TestCrossSelfBitIdentical is the subsystem's exactness anchor: a
// cross-dataset job whose two sides are the same stored content must produce
// a report bit-identical to the single-dataset job over that dataset — the
// cross semantics (left set A vs right set B) degenerate to the embedded
// comparison exactly.
func TestCrossSelfBitIdentical(t *testing.T) {
	s := testStore(t)
	man := ingestVariant(t, s, "slideX", 7, 4)
	sc := sched.New(sched.Config{Devices: 2})
	defer sc.Close()

	ds := openDataset(t, s, man.ID)
	singleID, err := sc.SubmitJob(ds.Source(), sched.JobOpts{Name: "single"})
	if err != nil {
		t.Fatalf("submit single: %v", err)
	}
	single := waitJob(t, sc, singleID)
	if single.State != sched.Done {
		t.Fatalf("single job ended %s: %s", single.State, single.Error)
	}

	src, match := NewSource(openDataset(t, s, man.ID), openDataset(t, s, man.ID))
	if len(match.Pairs) != len(man.Tiles) || len(match.OnlyA) != 0 || len(match.OnlyB) != 0 {
		t.Fatalf("self match = %d pairs, %d/%d unmatched", len(match.Pairs), len(match.OnlyA), len(match.OnlyB))
	}
	crossID, err := sc.SubmitJob(src, sched.JobOpts{Name: "cross"})
	if err != nil {
		t.Fatalf("submit cross: %v", err)
	}
	cross := waitJob(t, sc, crossID)
	if cross.State != sched.Done {
		t.Fatalf("cross job ended %s: %s", cross.State, cross.Error)
	}

	if cross.Report.Similarity != single.Report.Similarity {
		t.Errorf("cross similarity %.17g != single %.17g (must be bit-identical)",
			cross.Report.Similarity, single.Report.Similarity)
	}
	if cross.Report.RatioSum != single.Report.RatioSum ||
		cross.Report.Intersecting != single.Report.Intersecting ||
		cross.Report.Candidates != single.Report.Candidates {
		t.Errorf("cross report (%v, %d, %d) != single (%v, %d, %d)",
			cross.Report.RatioSum, cross.Report.Intersecting, cross.Report.Candidates,
			single.Report.RatioSum, single.Report.Intersecting, single.Report.Candidates)
	}
	if len(cross.Report.TileRatios) != len(single.Report.TileRatios) {
		t.Fatalf("cross has %d tile partials, single %d",
			len(cross.Report.TileRatios), len(single.Report.TileRatios))
	}
	for i := range cross.Report.TileRatios {
		if cross.Report.TileRatios[i] != single.Report.TileRatios[i] {
			t.Errorf("tile partial %d differs: %+v vs %+v",
				i, cross.Report.TileRatios[i], single.Report.TileRatios[i])
		}
	}
}

// TestCrossPartialOverlapComparesIntersection: a cross job over datasets
// sharing only some tile keys compares exactly the intersection, and the
// unmatched remainder is reported, not dropped.
func TestCrossPartialOverlapComparesIntersection(t *testing.T) {
	s := testStore(t)
	spec := pathology.Representative()
	spec.Tiles = 4
	d := pathology.Generate(spec)

	all := make([]store.IngestTile, len(d.Pairs))
	for i, tp := range d.Pairs {
		all[i] = store.IngestTile{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	manFull, err := s.Ingest("full", all)
	if err != nil {
		t.Fatal(err)
	}
	manHalf, err := s.Ingest("half", all[:2])
	if err != nil {
		t.Fatal(err)
	}

	sc := sched.New(sched.Config{Devices: 1})
	defer sc.Close()

	src, match := NewSource(openDataset(t, s, manFull.ID), openDataset(t, s, manHalf.ID))
	if len(match.Pairs) != 2 || len(match.OnlyA) != 2 || len(match.OnlyB) != 0 {
		t.Fatalf("match = %d pairs, %d/%d unmatched; want 2 pairs, 2 only in full",
			len(match.Pairs), len(match.OnlyA), len(match.OnlyB))
	}
	if src.Len() != 2 {
		t.Fatalf("source Len = %d, want the 2 matched pairs", src.Len())
	}
	crossID, err := sc.SubmitJob(src, sched.JobOpts{Name: "partial"})
	if err != nil {
		t.Fatal(err)
	}
	cross := waitJob(t, sc, crossID)
	if cross.State != sched.Done {
		t.Fatalf("cross job ended %s: %s", cross.State, cross.Error)
	}

	// Oracle: the half dataset self-compared (its tiles are the
	// intersection, and full's set A on those tiles is identical content).
	halfDS := openDataset(t, s, manHalf.ID)
	wantID, err := sc.SubmitJob(halfDS.Source(), sched.JobOpts{Name: "oracle"})
	if err != nil {
		t.Fatal(err)
	}
	want := waitJob(t, sc, wantID)
	if cross.Report.Similarity != want.Report.Similarity ||
		cross.Report.Intersecting != want.Report.Intersecting {
		t.Errorf("intersection cross (%.17g, %d) != oracle (%.17g, %d)",
			cross.Report.Similarity, cross.Report.Intersecting,
			want.Report.Similarity, want.Report.Intersecting)
	}
}

// TestSourceTaskMatchesPolyTask: a cross pair materializes under its tile's
// key, with non-empty polygon sets and a positive sharding weight.
func TestSourceTaskMatchesPolyTask(t *testing.T) {
	s := testStore(t)
	man := ingestVariant(t, s, "slideY", 3, 2)
	src, _ := NewSource(openDataset(t, s, man.ID), openDataset(t, s, man.ID))
	for i := 0; i < src.Len(); i++ {
		pt, err := src.PolyTask(i)
		if err != nil {
			t.Fatalf("PolyTask(%d): %v", i, err)
		}
		if ti := man.Tiles[i]; pt.Image != ti.Image || pt.Tile != ti.Tile {
			t.Fatalf("task %d key %s/%d, want the manifest's %s/%d", i, pt.Image, pt.Tile, ti.Image, ti.Tile)
		}
		if len(pt.A) == 0 || len(pt.B) == 0 {
			t.Fatalf("task %d materialized empty polygon sets", i)
		}
	}
}
