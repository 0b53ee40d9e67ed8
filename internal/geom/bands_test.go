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

// wideU is a U w pixels wide and 5 high with one-pixel walls, starting at
// x = -32 so that every width up to 159 is within the fuzzer's int8 reach.
func wideU(w int32) []geom.Point {
	x0, x1 := int32(-32), -32+w
	return []geom.Point{{X: x0, Y: 0}, {X: x1, Y: 0}, {X: x1, Y: 5}, {X: x1 - 1, Y: 5},
		{X: x1 - 1, Y: 1}, {X: x0 + 1, Y: 1}, {X: x0 + 1, Y: 5}, {X: x0, Y: 5}}
}

// checkRows holds a polygon as Slab.BuildBands leaves it to its caps: it has
// row masks exactly when it has a band table, is at most 64 pixels wide and
// at most geom.MaxRowsPerBand rows a band tall, and then bit i of word k is
// ContainsPixel(MinX+i, MinY+k) and every bit past the MBR is clear.
func checkRows(t *testing.T, p *geom.Polygon) {
	t.Helper()
	rows, ok := p.Rows()
	tab, tabled := p.Bands()
	m := p.MBR()
	width, height := int64(m.MaxX)-int64(m.MinX), int64(m.MaxY)-int64(m.MinY)
	want := tabled && width <= 64 && height <= int64(geom.MaxRowsPerBand*(len(tab.Y)-1))
	if ok != want {
		t.Fatalf("%v (%dx%d, table %v): row masks %v, want %v", p.Vertices(), width, height, tabled, ok, want)
	}
	if !ok {
		return
	}
	if int64(len(rows)) != height {
		t.Fatalf("%v: %d row masks for %d rows", p.Vertices(), len(rows), height)
	}
	for k, word := range rows {
		for i := int32(0); i < 64; i++ {
			inside := i < m.MaxX-m.MinX && p.ContainsPixel(m.MinX+i, m.MinY+int32(k))
			if (word>>i&1 == 1) != inside {
				t.Fatalf("%v: row %d bit %d is %d, pixel inside: %v", p.Vertices(), m.MinY+int32(k), i, word>>i&1, inside)
			}
		}
	}
}

// checkBandCount holds the count over p and q to the per-pixel count of box
// in every form the two can take: without band tables, with tables and the
// row masks BuildBands gives those that fit, with tables only, and mixed.
// Whenever both carry row masks the first tabled reading took the mask path,
// and it must agree with the band walks and the ContainsPixel loop.
func checkBandCount(t *testing.T, walk *pixelbox.BandWalk, p, q *geom.Polygon, tabled []*geom.Polygon, box geom.MBR) {
	t.Helper()
	wi, wp, wq := geomtest.BruteBoxCounts(p, q, box)
	banded := []*geom.Polygon{geom.WithoutRows(tabled[0]), geom.WithoutRows(tabled[1])}
	_, pm := tabled[0].Rows()
	_, qm := tabled[1].Rows()
	for _, pr := range []struct {
		name string
		p, q *geom.Polygon
	}{
		{"no tables", p, q},
		{"tables and row masks", tabled[0], tabled[1]},
		{"tables only", banded[0], banded[1]},
		{"none and a table", p, tabled[1]},
		{"row masks and a table", tabled[0], banded[1]},
	} {
		gi, gp, gq := walk.Count(pr.p, pr.q, box), walk.Count(pr.p, nil, box), walk.Count(nil, pr.q, box)
		if gi != wi || gp != wp || gq != wq {
			t.Fatalf("box %v, %s (row masks: %v, %v): count (∩ %d, p %d, q %d) != per pixel (∩ %d, p %d, q %d)\np=%v\nq=%v",
				box, pr.name, pm, qm, gi, gp, gq, wi, wp, wq, p.Vertices(), q.Vertices())
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
			checkRows(t, tp)
		}
		u := p.MBR().Union(q.MBR())
		for _, box := range []geom.MBR{u, p.MBR().Intersection(q.MBR()), {MinX: u.MinX + 5, MinY: u.MinY + 1, MaxX: u.MaxX - 2, MaxY: u.MaxY - 3}} {
			checkBandCount(t, &walk, p, q, tabled, box)
		}
	}
}

// TestRowsCap: row masks go to polygons at most a word wide and at most
// geom.MaxRowsPerBand rows a band tall. A 64-pixel-wide rectangle 2^30 rows
// tall is one band: it gets a table and no masks, where masks would be 8 GiB,
// and still counts exactly.
func TestRowsCap(t *testing.T) {
	const tall = 1 << 30
	perBand := int32(geom.MaxRowsPerBand)
	for _, tc := range []struct {
		p    *geom.Polygon
		rows bool
	}{
		{geom.Rect(0, 0, 64, tall), false},
		{geom.Rect(-5, 7, 59, 7+perBand), true},
		{geom.Rect(-5, 7, 59, 8+perBand), false},
		{geom.Rect(0, 0, 65, 1), false},
		{geom.MustPolygon(wideU(64)), true},
		{geom.MustPolygon(wideU(65)), false},
	} {
		tabled := geomtest.WithBands(tc.p)[0]
		if _, ok := tabled.Rows(); ok != tc.rows {
			t.Fatalf("%v: row masks %v, want %v", tc.p.MBR(), ok, tc.rows)
		}
		checkRows(t, tabled)
	}
	tabled := geomtest.WithBands(geom.Rect(0, 0, 64, tall), geom.Rect(10, 10, 20, tall-10))
	var walk pixelbox.BandWalk
	if got, want := walk.Count(tabled[0], tabled[1], geom.MBR{MinX: -1, MinY: -1, MaxX: 70, MaxY: tall + 1}), int64(10)*(tall-20); got != want {
		t.Fatalf("two rectangles 2^30 tall intersect in %d pixels, want %d", got, want)
	}
}

// FuzzBandCount: for every pair of polygons NewPolygon accepts and a box
// placed anywhere about them — inside, straddling or wholly outside either
// MBR, flush with an edge of one, down to one pixel wide or high, or empty —
// the count is what a ContainsPixel loop counts, whether the polygons carry
// band tables and row masks (as Slab.BuildBands makes them), tables only,
// nothing, or a mix; and the masks BuildBands makes are the pixels.
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
	// A word wide and either side of it: masks, masks, none.
	u63, u64, u65 := geom.EncodeRaw(wideU(63)), geom.EncodeRaw(wideU(64)), geom.EncodeRaw(wideU(65))
	f.Add(u63, u64, int8(0), int8(0), uint8(63), uint8(5))
	f.Add(u64, u64, int8(0), int8(1), uint8(64), uint8(3))
	f.Add(u64, u63, int8(7), int8(0), uint8(60), uint8(5))
	f.Add(u65, u64, int8(1), int8(0), uint8(64), uint8(4))
	f.Add(u64, u65, int8(0), int8(0), uint8(65), uint8(5))

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
		checkRows(t, tabled[0])
		checkRows(t, tabled[1])
		// The box sits relative to the pair, a few pixels past it at most, and
		// is small enough to count by hand; its variants have one side moved
		// onto the matching edge of p's MBR or of the two MBRs' overlap.
		u := p.MBR().Union(q.MBR())
		x0 := u.MinX - 4 + int32(uint8(x))%(u.Width()+8)
		y0 := u.MinY - 4 + int32(uint8(y))%(u.Height()+8)
		box := geom.MBR{MinX: x0, MinY: y0, MaxX: x0 + int32(w%64), MaxY: y0 + int32(h%64)}
		boxes := []geom.MBR{box}
		for _, m := range []geom.MBR{p.MBR(), p.MBR().Intersection(q.MBR())} {
			if m.IsEmpty() {
				continue
			}
			left, right, bottom, top := box, box, box, box
			left.MinX, right.MaxX, bottom.MinY, top.MaxY = m.MinX, m.MaxX, m.MinY, m.MaxY
			boxes = append(boxes, left, right, bottom, top)
		}
		for _, whole := range []geom.MBR{p.MBR().Intersection(q.MBR()), u} {
			boxes = append(boxes, whole)
		}
		for _, box := range boxes {
			if box.Pixels() <= 1<<12 {
				checkBandCount(t, &walk, p, q, tabled, box)
			}
		}
	})
}
