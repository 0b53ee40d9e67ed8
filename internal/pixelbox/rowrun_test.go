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

// perPixel is the count rowRuns replaced: every pixel of the box ray-cast
// against both polygons.
func perPixel(p, q *geom.Polygon, box geom.MBR) (inter, inP, inQ int64) {
	for y := box.MinY; y < box.MaxY; y++ {
		for x := box.MinX; x < box.MaxX; x++ {
			a, b := p.ContainsPixel(x, y), q.ContainsPixel(x, y)
			if a {
				inP++
			}
			if b {
				inQ++
			}
			if a && b {
				inter++
			}
		}
	}
	return inter, inP, inQ
}

// TestRowRunMatchesPerPixel holds the row-run counter to the per-pixel count
// on boxes of every relation to the two MBRs: inside the window, straddling
// either MBR, missing one or both, one row high, one column wide, empty.
// Whole pairs are then checked on both executors against two independent
// per-pixel oracles: the paper's literal CPU port and the brute-force count.
func TestRowRunMatchesPerPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x20B5))
	const size = 40
	var rows pixelbox.RowRuns // deliberately shared: scratch must not leak between calls
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
			gi, gp, gq := rows.Count(p, q, box)
			wi, wp, wq := perPixel(p, q, box)
			if gi != wi || gp != wp || gq != wq {
				t.Fatalf("trial %d box %v: row runs (∩ %d, p %d, q %d) != per pixel (∩ %d, p %d, q %d)\np=%v\nq=%v",
					trial, box, gi, gp, gq, wi, wp, wq, p.Vertices(), q.Vertices())
			}
		}
		// A polygon's MBR holds all of it.
		if _, gp, _ := rows.Count(p, q, p.MBR()); gp != p.Area() {
			t.Fatalf("trial %d: ‖p‖ over its MBR = %d, area %d", trial, gp, p.Area())
		}
	}

	spec := pathology.Representative()
	spec.Tiles = 2
	base := experiments.FilteredPairs(pathology.Generate(spec))
	for _, sf := range []int32{1, 3} {
		pairs := experiments.ScalePairs(base, sf)
		dev, _, _ := pixelbox.RunGPU(gpu.NewDevice(gpu.GTX580()), pairs, pixelbox.Config{})
		results := []struct {
			name string
			res  []pixelbox.AreaResult
		}{
			{"literal", experiments.LiteralCPU(pairs)},
			{"cpu", pixelbox.RunCPU(pairs, pixelbox.CPUConfig{})},
			{"cpu T=16", pixelbox.RunCPU(pairs, pixelbox.CPUConfig{Threshold: 16})},
			{"cpu parallel", pixelbox.RunCPUParallel(pairs, pixelbox.CPUConfig{Workers: 3})},
			{"gpu", dev},
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
