package sccg_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/pathology"
)

func trimmedRep(tiles int) *sccg.Dataset {
	spec := sccg.Representative()
	spec.Tiles = tiles
	return sccg.GenerateDataset(spec)
}

func TestEngineGPUAndCPUAgree(t *testing.T) {
	d := trimmedRep(2)
	gpu := sccg.NewEngine(sccg.Options{})
	cpu := sccg.NewEngine(sccg.Options{DisableGPU: true})
	for _, tp := range d.Pairs {
		gs, gi, gc, err := gpu.CrossComparePolygons(tp.A, tp.B)
		if err != nil {
			t.Fatal(err)
		}
		cs, ci, cc, err := cpu.CrossComparePolygons(tp.A, tp.B)
		if err != nil {
			t.Fatal(err)
		}
		if gi != ci || gc != cc || math.Abs(gs-cs) > 1e-12 {
			t.Fatalf("backends disagree: gpu %v/%d/%d vs cpu %v/%d/%d", gs, gi, gc, cs, ci, cc)
		}
		if gs <= 0.3 || gs >= 1 {
			t.Fatalf("implausible similarity %v", gs)
		}
	}
	if gpu.Device() == nil || gpu.Device().Launches() == 0 {
		t.Fatal("GPU engine did not use its device")
	}
	if cpu.Device() != nil {
		t.Fatal("CPU engine has a device")
	}
}

func TestEnginePipelineMatchesDirect(t *testing.T) {
	d := trimmedRep(2)
	eng := sccg.NewEngine(sccg.Options{})
	report, err := eng.CrossCompareDataset(sccg.EncodeDataset(d))
	if err != nil {
		t.Fatal(err)
	}
	// Direct per-tile comparison must agree on pair counts with the full
	// text-parsing pipeline.
	var wantHits int
	direct := sccg.NewEngine(sccg.Options{})
	for _, tp := range d.Pairs {
		_, hits, _, err := direct.CrossComparePolygons(tp.A, tp.B)
		if err != nil {
			t.Fatal(err)
		}
		wantHits += hits
	}
	if report.Intersecting != wantHits {
		t.Fatalf("pipeline found %d intersecting pairs, direct %d", report.Intersecting, wantHits)
	}
}

func TestParseEncodeRoundTrip(t *testing.T) {
	d := trimmedRep(1)
	data := sccg.EncodePolygons(d.Pairs[0].A)
	polys, err := sccg.ParsePolygons(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(polys) != len(d.Pairs[0].A) {
		t.Fatalf("parsed %d, want %d", len(polys), len(d.Pairs[0].A))
	}
}

func TestExactAreasAgainstMatchPairs(t *testing.T) {
	d := trimmedRep(1)
	tp := d.Pairs[0]
	pairs, _, err := sccg.MatchPairs(tp.A, tp.B)
	if err != nil || len(pairs) == 0 {
		t.Fatalf("MatchPairs = %d pairs, %v", len(pairs), err)
	}
	eng := sccg.NewEngine(sccg.Options{})
	got, err := eng.ComputeAreas(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		if got[i] != sccg.ExactAreas(pr.P, pr.Q) {
			t.Fatalf("pair %d: PixelBox disagrees with exact overlay", i)
		}
	}
}

func TestCorpusAccessors(t *testing.T) {
	if len(sccg.Corpus()) != 18 {
		t.Fatal("corpus size")
	}
	if sccg.Representative().Name != "oligoastroIII_1" {
		t.Fatal("representative name")
	}
}

func TestNewPolygonValidates(t *testing.T) {
	if _, err := sccg.NewPolygon([]sccg.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}, {X: 1, Y: -1}}); err == nil {
		t.Fatal("diagonal polygon accepted")
	}
	p, err := sccg.NewPolygon([]sccg.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}})
	if err != nil || p.Area() != 4 {
		t.Fatalf("square rejected: %v", err)
	}
}

func TestDatasetGeneration(t *testing.T) {
	spec := pathology.Corpus()[0]
	spec.Tiles = 2
	d := sccg.GenerateDataset(spec)
	tasks := sccg.EncodeDataset(d)
	if len(tasks) != 2 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if len(tasks[0].RawA) == 0 || len(tasks[0].RawB) == 0 {
		t.Fatal("empty task payload")
	}
}
