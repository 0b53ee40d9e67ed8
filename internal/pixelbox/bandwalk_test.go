package pixelbox_test

import (
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/geomtest"
	"repro/internal/gpu"
	"repro/internal/pathology"
	"repro/internal/pixelbox"
)

// count3 is the walk's three readings of a box: ‖p∩q‖, ‖p‖ and ‖q‖ within it,
// the last two as the direct-union variants take them.
func count3(w *pixelbox.BandWalk, p, q *geom.Polygon, box geom.MBR) (inter, inP, inQ int64) {
	return w.Count(p, q, box), w.Count(p, nil, box), w.Count(nil, q, box)
}

// TestBandWalkMatchesPerPixel holds the band walk to the per-pixel count on
// boxes of every relation to the two MBRs: inside the window, straddling
// either MBR, missing one or both, one row high, one column wide, empty —
// over polygons with band tables, without, and one of each. Whole pairs are
// then checked on both executors against two independent per-pixel oracles:
// the paper's literal CPU port and the brute-force count.
func TestBandWalkMatchesPerPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x20B5))
	const size = 40
	var walk pixelbox.BandWalk // deliberately shared: scratch must not leak between calls
	trials := 400
	if testing.Short() {
		trials = 80
	}
	for trial := 0; trial < trials; trial++ {
		p := geomtest.RandomPolygon(rng, size)
		q := geomtest.RandomPolygon(rng, size)
		if p == nil || q == nil {
			continue
		}
		if trial%3 == 0 {
			// Shift q so the MBRs only partly overlap, or not at all.
			q = q.Translate(rng.Int31n(2*size)-size, rng.Int31n(2*size)-size)
		}
		if trial%5 == 0 {
			p, q = p.Scale(3), q.Scale(3)
		}
		tabled := geomtest.WithBands(p, q)
		if _, ok := tabled[0].Bands(); !ok {
			t.Fatalf("trial %d: no band table for %v", trial, p.Vertices())
		}
		if _, ok := p.Bands(); ok {
			t.Fatalf("trial %d: a polygon built outside a slab has a band table", trial)
		}
		u := p.MBR().Union(q.MBR())
		boxes := []geom.MBR{
			p.MBR().Intersection(q.MBR()), // the kernel's window (may be empty)
			u,                             // the direct-union variants' window
			p.MBR(), q.MBR(),
			{MinX: u.MinX - 3, MinY: u.MinY - 3, MaxX: u.MaxX + 3, MaxY: u.MaxY + 3},
			{MinX: u.MaxX + 1, MinY: u.MinY, MaxX: u.MaxX + 5, MaxY: u.MaxY}, // misses both
		}
		for i := 0; i < 12; i++ {
			x0 := u.MinX - 2 + rng.Int31n(u.Width()+4)
			y0 := u.MinY - 2 + rng.Int31n(u.Height()+4)
			w, h := 1+rng.Int31n(u.Width()+4), 1+rng.Int31n(u.Height()+4)
			switch i % 4 {
			case 1:
				h = 1 // one row
			case 2:
				w = 1 // one column
			case 3:
				w, h = 1, 1
			}
			boxes = append(boxes, geom.MBR{MinX: x0, MinY: y0, MaxX: x0 + w, MaxY: y0 + h})
		}
		for _, box := range boxes {
			wi, wp, wq := geomtest.BruteBoxCounts(p, q, box)
			for _, pr := range []struct {
				name string
				p, q *geom.Polygon
			}{{"no tables", p, q}, {"tables", tabled[0], tabled[1]}, {"table and none", tabled[0], q}} {
				gi, gp, gq := count3(&walk, pr.p, pr.q, box)
				if gi != wi || gp != wp || gq != wq {
					t.Fatalf("trial %d box %v, %s: band walk (∩ %d, p %d, q %d) != per pixel (∩ %d, p %d, q %d)\np=%v\nq=%v",
						trial, box, pr.name, gi, gp, gq, wi, wp, wq, p.Vertices(), q.Vertices())
				}
			}
		}
		// A polygon's MBR holds all of it.
		if gp := walk.Count(tabled[0], nil, p.MBR()); gp != p.Area() {
			t.Fatalf("trial %d: ‖p‖ over its MBR = %d, area %d", trial, gp, p.Area())
		}
	}

	spec := pathology.Representative()
	spec.Tiles = 2
	base := experiments.FilteredPairs(pathology.Generate(spec))
	for _, sf := range []int32{1, 3} {
		pairs := experiments.ScalePairs(base, sf)
		dev, _, _ := pixelbox.RunGPU(gpu.NewDevice(gpu.GTX580()), pairs, pixelbox.Config{})
		devTabled, _, _ := pixelbox.RunGPU(gpu.NewDevice(gpu.GTX580()), experiments.TabledPairs(pairs), pixelbox.Config{Variant: pixelbox.PixelBoxNoSep})
		results := []struct {
			name string
			res  []pixelbox.AreaResult
		}{
			{"literal", experiments.LiteralCPU(pairs)},
			{"cpu", pixelbox.RunCPU(pairs, pixelbox.CPUConfig{})},
			{"cpu, tables", pixelbox.RunCPU(experiments.TabledPairs(pairs), pixelbox.CPUConfig{})},
			{"cpu parallel", pixelbox.RunCPUParallel(pairs, pixelbox.CPUConfig{Workers: 3})},
			{"gpu", dev},
			{"gpu, tables", devTabled},
		}
		for i, pr := range pairs {
			inter := geomtest.BruteIntersectionArea(pr.P, pr.Q)
			want := pixelbox.AreaResult{Intersection: inter, Union: pr.P.Area() + pr.Q.Area() - inter}
			for _, got := range results {
				if got.res[i] != want {
					t.Fatalf("SF%d pair %d: %s %+v != brute force %+v", sf, i, got.name, got.res[i], want)
				}
			}
		}
	}
}

// TestRowsAgreeAcrossExecutors: over the representative corpus scaled 1–3×,
// the CPU port on plain pairs (band walks deriving their bands), the CPU port
// on tabled pairs and the simulated GPU on tabled pairs, in a variant with
// indirect union and one without, give the same areas exactly. Tabled pairs
// count by row masks wherever both polygons have them; scaling leaves more
// and more polygons too wide or too tall a band for masks, so each scale
// mixes the two, and at 3× the GPU's windows pass its threshold and are
// counted as clipped sampling sub-boxes.
func TestRowsAgreeAcrossExecutors(t *testing.T) {
	spec := pathology.Representative()
	spec.Tiles = 2
	base := experiments.FilteredPairs(pathology.Generate(spec))
	for sf := int32(1); sf <= 3; sf++ {
		pairs := experiments.ScalePairs(base, sf)
		tabled := experiments.TabledPairs(pairs)
		masked := 0
		for _, pr := range tabled {
			_, pm := pr.P.Rows()
			_, qm := pr.Q.Rows()
			if pm && qm {
				masked++
			}
		}
		if masked == 0 || (sf > 1 && masked == len(tabled)) {
			t.Fatalf("SF%d: %d of %d pairs have row masks on both sides; the test needs both kinds", sf, masked, len(tabled))
		}
		want := pixelbox.RunCPU(pairs, pixelbox.CPUConfig{})
		dev, _, _ := pixelbox.RunGPU(gpu.NewDevice(gpu.GTX580()), tabled, pixelbox.Config{})
		devNoSep, _, _ := pixelbox.RunGPU(gpu.NewDevice(gpu.GTX580()), tabled, pixelbox.Config{Variant: pixelbox.PixelBoxNoSep})
		for name, got := range map[string][]pixelbox.AreaResult{
			"cpu, tables": pixelbox.RunCPU(tabled, pixelbox.CPUConfig{}),
			"gpu, tables": dev, "gpu no-sep, tables": devNoSep,
		} {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("SF%d pair %d: %s %+v, cpu without tables %+v", sf, i, name, got[i], want[i])
				}
			}
		}
		t.Logf("SF%d: %d of %d pairs masked on both sides", sf, masked, len(tabled))
	}
}

// hugeEll returns an L of extent 1<<30 with arms half as thick, a copy of it
// shifted by 3 pixels each way, and the closed-form areas of the two's
// intersection and union.
func hugeEll() (p, q *geom.Polygon, want pixelbox.AreaResult) {
	const e, h = int64(1) << 30, int64(1) << 29
	p = geom.MustPolygon([]geom.Point{{X: 0, Y: 0}, {X: int32(e), Y: 0}, {X: int32(e), Y: int32(h)},
		{X: int32(h), Y: int32(h)}, {X: int32(h), Y: int32(e)}, {X: 0, Y: int32(e)}})
	q = p.Translate(3, 3)
	// The L is [0,e]×[0,h] ∪ [0,h]×[h,e]; piece by piece against the shifted
	// copy's, the overlaps are (e−3)(h−3), 3(h−3) and (h−3)(e−h−3).
	want.Intersection = (h - 3) * (2*e - h - 3)
	want.Union = 2*p.Area() - want.Intersection
	return p, q, want
}

// TestPixelExtentIsNotCompute: a six-vertex pair spanning 2^30 pixels each
// way used to cost the CPU port one edge scan per pixel row, half a minute of
// one core. A band walk sees five bands.
func TestPixelExtentIsNotCompute(t *testing.T) {
	p, q, want := hugeEll()
	if p.Area() != 3<<58 {
		t.Fatalf("‖p‖ = %d, want 3·2^58", p.Area())
	}
	plain := []pixelbox.Pair{{P: p, Q: q}, {P: q, Q: p}}
	for name, pairs := range map[string][]pixelbox.Pair{"no tables": plain, "tables": experiments.TabledPairs(plain)} {
		for i, got := range pixelbox.RunCPU(pairs, pixelbox.CPUConfig{}) {
			if got != want {
				t.Errorf("%s, pair %d: RunCPU %+v, closed form %+v", name, i, got, want)
			}
		}
		for i, got := range pixelbox.RunCPUParallel(pairs, pixelbox.CPUConfig{Workers: 2}) {
			if got != want {
				t.Errorf("%s, pair %d: RunCPUParallel %+v, closed form %+v", name, i, got, want)
			}
		}
	}
}
