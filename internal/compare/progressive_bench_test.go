package compare

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/sched"
	"repro/internal/store"
)

// gradedCorpus ingests k datasets whose cell bounds fall strictly between 0
// and 1. Dataset d holds, in each of tiles shared tile keys, 100 squares of
// side 12+d px on a 40 px grid as set A and the same squares moved by
// (offset, offset) as set B. Every polygon of a set has one area, so the bound
// of cell (i, j), i < j, is side_i²/side_j²; at offset 0 that bound is also
// the cell's exact similarity, and any offset pulls the similarity below it.
func gradedCorpus(tb testing.TB, s *store.Store, k, tiles int, offset int32) []string {
	tb.Helper()
	ids := make([]string, k)
	for d := range ids {
		side := int32(12 + d)
		its := make([]store.IngestTile, tiles)
		for t := range its {
			it := store.IngestTile{Image: "graded", Tile: t}
			for y := int32(0); y < 10; y++ {
				for x := int32(0); x < 10; x++ {
					x0, y0 := 40*x, 40*y
					it.A = append(it.A, geom.Rect(x0, y0, x0+side, y0+side))
					it.B = append(it.B, geom.Rect(x0+offset, y0+offset, x0+offset+side, y0+offset+side))
				}
			}
			its[t] = it
		}
		man, err := s.Ingest(fmt.Sprintf("graded-%d-%d", d, offset), its)
		if err != nil {
			tb.Fatalf("Ingest: %v", err)
		}
		ids[d] = man.ID
	}
	return ids
}

// corpusSample ingests the first k datasets of pathology.Corpus() under one
// image name, so their tiles pair up, at most tiles tiles each.
func corpusSample(tb testing.TB, s *store.Store, k, tiles int) []string {
	tb.Helper()
	var ids []string
	for _, spec := range pathology.Corpus()[:k] {
		spec.Name = "corpus"
		spec.Tiles = min(spec.Tiles, tiles)
		man, err := pathologytest.Ingest(s, pathology.Generate(spec))
		if err != nil {
			tb.Fatalf("IngestDataset: %v", err)
		}
		ids = append(ids, man.ID)
	}
	return ids
}

// BenchmarkProgressiveMatrix times progressive matrix runs end to end (plan,
// dispatch, every cell job, finalize) over corpora whose bounds sit strictly
// inside (0, 1) (graded, at offsets 0 and 2) and over pathology.Corpus()
// datasets (bounds 0 or 1), on a one-slot and a two-device hybrid scheduler.
// Beside ns/op it reports cells/op, the cells that got a job, and
// canceled/op, the jobs canceled while the run was in flight.
//
//	go test ./internal/compare -run '^$' -bench ProgressiveMatrix -benchtime 15x
func BenchmarkProgressiveMatrix(b *testing.B) {
	s, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const maxK = 16
	inputs := []struct {
		name string
		ids  []string
	}{
		{"graded0", gradedCorpus(b, s, maxK, 16, 0)},
		{"graded2", gradedCorpus(b, s, maxK, 16, 2)},
		{"corpus", corpusSample(b, s, maxK, 4)},
	}
	schedulers := []struct {
		name string
		cfg  sched.Config
	}{
		{"slot1", sched.Config{}},
		{"hybrid2", sched.Config{Devices: 2, HybridCPU: true}},
	}
	objectives := []struct {
		name   string
		topK   int
		minSim float64
	}{
		{"top1", 1, 0},
		{"top3", 3, 0},
		{"min0.5", 0, 0.5},
		{"top3min0.5", 3, 0.5},
	}
	for _, in := range inputs {
		for _, sv := range schedulers {
			sc := sched.New(sv.cfg)
			var submits int64
			m := NewManager(ManagerConfig{
				Scheduler: sc,
				Submit:    directSubmit(b, s, sc, &submits),
				Bound:     func(a, b string) (CellBound, error) { return BoundPair(s, a, b) },
			})
			for _, k := range []int{6, 12, 16} {
				for _, obj := range objectives {
					name := fmt.Sprintf("%s/%s/K%d/%s", in.name, sv.name, k, obj.name)
					b.Run(name, func(b *testing.B) {
						spec := RunSpec{Datasets: in.ids[:k], TopK: obj.topK, MinSimilarity: obj.minSim}
						atomic.StoreInt64(&submits, 0)
						canceled0 := sc.Stats().Canceled
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							run, err := m.StartSpec(spec, nil)
							if err != nil {
								b.Fatal(err)
							}
							<-run.Done()
							if st := run.Status(); st.State != RunDone {
								b.Fatalf("run ended %s", st.State)
							}
						}
						b.StopTimer()
						b.ReportMetric(float64(atomic.LoadInt64(&submits))/float64(b.N), "cells/op")
						b.ReportMetric(float64(sc.Stats().Canceled-canceled0)/float64(b.N), "canceled/op")
					})
				}
			}
			m.Close()
			sc.Close()
		}
	}
}
