package geom_test

// The band table's tests live outside package geom because what a table is
// for is counting, and the counter is internal/pixelbox's band walk.

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/geomtest"
	"repro/internal/pixelbox"
)

// comb is a row of unit-wide teeth, all of different heights, on a
// unit-high base: 4·teeth vertices and 2 + teeth·(teeth+1) band crossings.
func comb(teeth int32) []geom.Point {
	vs := []geom.Point{{X: 0, Y: 0}, {X: 2*teeth - 1, Y: 0}}
	for i := teeth - 1; i >= 0; i-- {
		top := 2 + i
		vs = append(vs, geom.Point{X: 2*i + 1, Y: top}, geom.Point{X: 2 * i, Y: top})
		if i > 0 {
			vs = append(vs, geom.Point{X: 2 * i, Y: 1}, geom.Point{X: 2*i - 1, Y: 1})
		}
	}
	return vs
}

// checkBandCount holds the band walk over p and q, with and without band
// tables, to the per-pixel count of box.
func checkBandCount(t *testing.T, walk *pixelbox.BandWalk, p, q *geom.Polygon, tabled []*geom.Polygon, box geom.MBR) {
	t.Helper()
	wi, wp, wq := geomtest.BruteBoxCounts(p, q, box)
	for _, pr := range [][2]*geom.Polygon{{p, q}, {tabled[0], tabled[1]}, {p, tabled[1]}} {
		gi, gp, gq := walk.Count(pr[0], pr[1], box), walk.Count(pr[0], nil, box), walk.Count(nil, pr[1], box)
		if gi != wi || gp != wp || gq != wq {
			_, pt := pr[0].Bands()
			_, qt := pr[1].Bands()
			t.Fatalf("box %v (tables: %v, %v): band walk (∩ %d, p %d, q %d) != per pixel (∩ %d, p %d, q %d)\np=%v\nq=%v",
				box, pt, qt, gi, gp, gq, wi, wp, wq, p.Vertices(), q.Vertices())
		}
	}
}

// TestBandTableCap: a polygon whose crossings outnumber the cap is left
// without a table, one just under it gets one, and both count as they should.
func TestBandTableCap(t *testing.T) {
	var walk pixelbox.BandWalk
	for _, tc := range []struct {
		teeth int32
		table bool
	}{{4, true}, {12, true}, {16, false}, {20, false}} {
		vs := comb(tc.teeth)
		if crossings := 2 + tc.teeth*(tc.teeth+1); (int(crossings) <= geom.MaxBandCrossings*len(vs)) != tc.table {
			t.Fatalf("comb(%d): %d crossings on %d vertices is on the wrong side of the cap for this test", tc.teeth, crossings, len(vs))
		}
		p := geom.MustPolygon(vs)
		q := p.Translate(3, 2)
		tabled := geomtest.WithBands(p, q)
		for i, tp := range tabled {
			if _, ok := tp.Bands(); ok != tc.table {
				t.Fatalf("comb(%d) polygon %d: band table %v, want %v", tc.teeth, i, ok, tc.table)
			}
		}
		u := p.MBR().Union(q.MBR())
		for _, box := range []geom.MBR{u, p.MBR().Intersection(q.MBR()), {MinX: u.MinX + 5, MinY: u.MinY + 1, MaxX: u.MaxX - 2, MaxY: u.MaxY - 3}} {
			checkBandCount(t, &walk, p, q, tabled, box)
		}
	}
}

// FuzzBandCount: for every pair of polygons NewPolygon accepts and a box
// placed anywhere about them — inside, straddling or wholly outside either
// MBR, down to one pixel wide or high, or empty — the band walk counts what a
// ContainsPixel loop counts, whether the polygons carry band tables (as
// Slab.BuildBands makes them), do not, or one of each.
func FuzzBandCount(f *testing.F) {
	square := geom.EncodeRaw([]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}})
	ell := geom.EncodeRaw([]geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 2}, {X: 0, Y: 2}})
	u := geom.EncodeRaw([]geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 5, Y: 4}, {X: 4, Y: 4}, {X: 4, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 4}, {X: 0, Y: 4}})
	f.Add(square, ell, int8(0), int8(0), uint8(4), uint8(4))
	f.Add(u, square, int8(-1), int8(2), uint8(9), uint8(1))
	f.Add(u, ell, int8(3), int8(-2), uint8(1), uint8(9))
	f.Add(ell, u, int8(1), int8(1), uint8(1), uint8(1))
	f.Add(square, u, int8(9), int8(9), uint8(3), uint8(0))
	f.Add(geom.EncodeRaw(comb(20)), u, int8(2), int8(0), uint8(30), uint8(30)) // over the cap: no table
	f.Add([]byte{1, 7, 2, 0xfd, 5, 0xfc, 7}, []byte{1, 4, 3, 0xfe, 2, 1, 1}, int8(0), int8(0), uint8(7), uint8(7))

	var walk pixelbox.BandWalk
	f.Fuzz(func(t *testing.T, a, b []byte, x, y int8, w, h uint8) {
		if len(a) > 257 || len(b) > 257 {
			return
		}
		p, err := geom.NewPolygon(geom.FuzzVertices(a))
		if err != nil {
			return
		}
		q, err := geom.NewPolygon(geom.FuzzVertices(b))
		if err != nil {
			return
		}
		tabled := geomtest.WithBands(p, q)
		// The box sits relative to the pair, a few pixels past it at most, and
		// is small enough to count by hand.
		u := p.MBR().Union(q.MBR())
		x0 := u.MinX - 4 + int32(uint8(x))%(u.Width()+8)
		y0 := u.MinY - 4 + int32(uint8(y))%(u.Height()+8)
		boxes := []geom.MBR{{MinX: x0, MinY: y0, MaxX: x0 + int32(w%64), MaxY: y0 + int32(h%64)}}
		for _, whole := range []geom.MBR{p.MBR().Intersection(q.MBR()), u} {
			if whole.Pixels() <= 1<<12 {
				boxes = append(boxes, whole)
			}
		}
		for _, box := range boxes {
			checkBandCount(t, &walk, p, q, tabled, box)
		}
	})
}
