package geom

import (
	"slices"
	"testing"
)

// referenceNewPolygonErr is the validation NewPolygon performed before the
// edge table existed, kept as the oracle for FuzzNewPolygon: the per-edge
// checks, then the map-and-three-quadratic-loops checkSimple, verbatim.
func referenceNewPolygonErr(vertices []Point) error {
	n := len(vertices)
	if n < 4 {
		return ErrTooFewVertices
	}
	if n%2 != 0 {
		return ErrOddVertexCount
	}
	prevHorizontal := false
	for i := 0; i < n; i++ {
		a, b := vertices[i], vertices[(i+1)%n]
		dx, dy := b.X-a.X, b.Y-a.Y
		switch {
		case dx == 0 && dy == 0:
			return ErrZeroLengthEdge
		case dx != 0 && dy != 0:
			return ErrNotRectilinear
		}
		horizontal := dy == 0
		if i > 0 && horizontal == prevHorizontal {
			return ErrNotAlternating
		}
		prevHorizontal = horizontal
	}
	last := edgeHorizontal(vertices[n-1], vertices[0])
	first := edgeHorizontal(vertices[0], vertices[1])
	if last == first {
		return ErrNotAlternating
	}
	if shoelace(vertices) == 0 {
		return ErrZeroArea
	}
	return referenceCheckSimple(vertices)
}

func referenceCheckSimple(vertices []Point) error {
	n := len(vertices)
	seen := make(map[Point]struct{}, n)
	for _, v := range vertices {
		if _, dup := seen[v]; dup {
			return ErrRepeatedVertex
		}
		seen[v] = struct{}{}
	}
	hs := referenceHorizontalEdges(vertices)
	vs := referenceVerticalEdges(vertices)
	// Horizontal-horizontal overlap on the same row.
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			if hs[i].Y == hs[j].Y && hs[i].X1 < hs[j].X2 && hs[j].X1 < hs[i].X2 {
				return ErrSelfIntersecting
			}
		}
	}
	// Vertical-vertical overlap on the same column.
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if vs[i].X == vs[j].X && vs[i].Y1 < vs[j].Y2 && vs[j].Y1 < vs[i].Y2 {
				return ErrSelfIntersecting
			}
		}
	}
	// Horizontal-vertical proper crossings (shared endpoints are fine: that
	// is how consecutive edges join).
	for _, h := range hs {
		for _, v := range vs {
			if h.X1 < v.X && v.X < h.X2 && v.Y1 < h.Y && h.Y < v.Y2 {
				return ErrSelfIntersecting
			}
		}
	}
	return nil
}

func referenceVerticalEdges(vertices []Point) []VEdge {
	n := len(vertices)
	out := make([]VEdge, 0, n/2)
	for i := 0; i < n; i++ {
		a, b := vertices[i], vertices[(i+1)%n]
		if a.X == b.X {
			y1, y2 := a.Y, b.Y
			if y1 > y2 {
				y1, y2 = y2, y1
			}
			out = append(out, VEdge{X: a.X, Y1: y1, Y2: y2})
		}
	}
	return out
}

func referenceHorizontalEdges(vertices []Point) []HEdge {
	n := len(vertices)
	out := make([]HEdge, 0, n/2)
	for i := 0; i < n; i++ {
		a, b := vertices[i], vertices[(i+1)%n]
		if a.Y == b.Y {
			x1, x2 := a.X, b.X
			if x1 > x2 {
				x1, x2 = x2, x1
			}
			out = append(out, HEdge{Y: a.Y, X1: x1, X2: x2})
		}
	}
	return out
}

// fuzzVertices decodes a vertex loop from fuzz bytes. The first byte picks
// the reading: raw (x, y) int8 pairs, which reach every early rejection, or a
// staircase walk (alternating horizontal and vertical int8 steps, closed back
// onto the start), which gets past the per-edge checks nearly every time and
// so spends the fuzzer's budget inside checkSimple. Small coordinates make
// collisions, overlaps and crossings likely.
func fuzzVertices(data []byte) []Point {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	if mode%2 == 0 {
		vs := make([]Point, 0, len(data)/2)
		for ; len(data) >= 2; data = data[2:] {
			vs = append(vs, Point{int32(int8(data[0])), int32(int8(data[1]))})
		}
		return vs
	}
	var vs []Point
	cur := Point{}
	for i, b := range data {
		vs = append(vs, cur)
		if i%2 == 0 {
			cur.X += int32(int8(b))
		} else {
			cur.Y += int32(int8(b))
		}
	}
	if len(vs)%2 == 1 {
		vs = vs[:len(vs)-1]
	}
	if n := len(vs); n >= 4 {
		// Close the loop rectilinearly: the last vertex takes the start's X
		// (the closing edge is vertical) and the one before it the last's Y.
		vs[n-1] = Point{vs[0].X, vs[n-2].Y}
	}
	return vs
}

func encodeRaw(vs []Point) []byte {
	out := []byte{0}
	for _, v := range vs {
		out = append(out, byte(int8(v.X)), byte(int8(v.Y)))
	}
	return out
}

// checkSlabAdd puts vs through Slab.Add between two neighbours, in a slab
// whose unused storage is filled with canaries: the verdict and the polygon
// must be NewPolygon's (want, wantErr), its slices must be capped at their
// length, and nothing outside them may have been written. BuildBands then has
// to leave all of that as it was, size its storage to fit, and give each
// polygon the capacity-capped table and row masks it would get alone in a
// slab.
func checkSlabAdd(t *testing.T, vs []Point, want *Polygon, wantErr error) {
	t.Helper()
	square := []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}}
	ref := MustPolygon(square)
	canaryV, canaryH, canaryP := VEdge{-7, -7, -7}, HEdge{-7, -7, -7}, Point{-7, -7}
	s := NewSlab(3, len(vs)+2*len(square))
	pts, ve, he := s.pts[:cap(s.pts)], s.ve[:cap(s.ve)], s.he[:cap(s.he)]
	for i := range pts {
		pts[i] = canaryP
	}
	for i := range ve {
		ve[i], he[i] = canaryV, canaryH
	}
	add := func(src []Point) (*Polygon, error) {
		dst := s.Vertices(len(src))
		copy(dst, src)
		return s.Add(dst)
	}
	intact := func(what string, p *Polygon) {
		t.Helper()
		if p == nil || !slices.Equal(p.vertices, square) || !slices.Equal(p.vedges, ref.vedges) ||
			!slices.Equal(p.hedges, ref.hedges) || p.mbr != ref.mbr || p.area != ref.area {
			t.Fatalf("slab: %s neighbour of %v is %+v", what, vs, p)
		}
	}

	before, err := add(square)
	if err != nil {
		t.Fatalf("slab: square rejected: %v", err)
	}
	p, err := add(vs)
	if err != wantErr || (p == nil) != (err != nil) {
		t.Fatalf("Slab.Add(%v) = %v, %v; NewPolygon says %v", vs, p, err, wantErr)
	}
	if p != nil {
		if !slices.Equal(p.vertices, vs) || !slices.Equal(p.vedges, want.vedges) || !slices.Equal(p.hedges, want.hedges) ||
			p.mbr != want.mbr || p.area != want.area {
			t.Fatalf("Slab.Add(%v) built %+v, NewPolygon %+v", vs, p, want)
		}
		if cap(p.vertices) != len(vs) || cap(p.vedges) != len(vs)/2 || cap(p.hedges) != len(vs)/2 {
			t.Fatalf("Slab.Add(%v): slices not capped at their length: %d %d %d",
				vs, cap(p.vertices), cap(p.vedges), cap(p.hedges))
		}
	}
	// Whatever the verdict, the slab took at most the polygon's own entries,
	// everything past them is still canaries, and the neighbour before them
	// (checked below) is what it was.
	if len(s.ve) > 2+len(vs)/2 || len(s.he) > 2+len(vs)/2 {
		t.Fatalf("Slab.Add(%v) took %d and %d edge entries", vs, len(s.ve)-2, len(s.he)-2)
	}
	canaries := func(who string) {
		t.Helper()
		for _, e := range s.ve[len(s.ve):cap(s.ve)] {
			if e != canaryV {
				t.Fatalf("%s(%v) wrote vertical-edge storage it was not given: %v", who, vs, s.ve[:cap(s.ve)])
			}
		}
		for _, e := range s.he[len(s.he):cap(s.he)] {
			if e != canaryH {
				t.Fatalf("%s(%v) wrote horizontal-edge storage it was not given: %v", who, vs, s.he[:cap(s.he)])
			}
		}
		for _, v := range s.pts[len(s.pts):cap(s.pts)] {
			if v != canaryP {
				t.Fatalf("%s(%v) wrote vertex storage it was not given", who, vs)
			}
		}
	}
	canaries("Slab.Add")
	intact("earlier", before)
	after, err := add(square)
	if err != nil {
		t.Fatalf("slab: square after %v rejected: %v", vs, err)
	}
	intact("earlier", before)
	intact("later", after)

	s.BuildBands()
	canaries("BuildBands")
	intact("earlier", before)
	intact("later", after)
	polys := []*Polygon{before, after}
	if p != nil {
		polys = []*Polygon{before, p, after}
		if !slices.Equal(p.vertices, vs) || !slices.Equal(p.vedges, want.vedges) || !slices.Equal(p.hedges, want.hedges) {
			t.Fatalf("BuildBands changed %v", vs)
		}
	}
	if len(s.polys) != len(polys) {
		t.Fatalf("slab holds %d polygons after Add(%v), want the %d accepted", len(s.polys), vs, len(polys))
	}
	used, usedRows := 0, 0
	for _, q := range polys {
		alone, ok := appendBands(nil, q)
		if !slices.Equal(q.bands, alone) || (q.bands != nil) != ok || cap(q.bands) != len(q.bands) {
			t.Fatalf("BuildBands gave %v the table %v (cap %d), alone it gets %v", q.vertices, q.bands, cap(q.bands), alone)
		}
		rows, ok := appendRows(nil, q, q.bands)
		if !slices.Equal(q.rows, rows) || (q.rows != nil) != ok || cap(q.rows) != len(q.rows) {
			t.Fatalf("BuildBands gave %v the row masks %x (cap %d), alone it gets %x", q.vertices, q.rows, cap(q.rows), rows)
		}
		used += len(q.bands)
		usedRows += len(q.rows)
	}
	if used != len(s.bands) || len(s.bands) != cap(s.bands) {
		t.Fatalf("band storage for %v: %d of %d used, capacity %d", vs, used, len(s.bands), cap(s.bands))
	}
	if usedRows != len(s.rows) || len(s.rows) != cap(s.rows) {
		t.Fatalf("row storage for %v: %d of %d used, capacity %d", vs, usedRows, len(s.rows), cap(s.rows))
	}
}

// FuzzNewPolygon holds the sort-based checkSimple to the accept/reject set
// and the sentinel of the implementation it replaced, for every vertex list,
// and Slab.Add to NewPolygon.
func FuzzNewPolygon(f *testing.F) {
	seeds := [][]Point{
		// valid: square, L, U
		{{0, 0}, {4, 0}, {4, 4}, {0, 4}},
		{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}},
		{{0, 0}, {5, 0}, {5, 4}, {4, 4}, {4, 1}, {1, 1}, {1, 4}, {0, 4}},
		// the cases of TestNewPolygonValidation and TestNewPolygonSelfIntersection
		{{0, 0}, {1, 0}, {1, 1}},
		{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}},
		{{0, 0}, {1, 1}, {2, 0}, {1, -1}},
		{{0, 0}, {0, 0}, {1, 0}, {1, 1}},
		{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {1, 1}, {0, 1}},
		{{0, 0}, {2, 0}, {2, 2}, {1, 2}, {1, 1}, {2, 1}, {2, 2}, {0, 2}}, // pinch: repeated vertex
		{{0, 0}, {3, 0}, {3, 2}, {1, 2}, {1, -1}, {0, -1}},               // proper crossing
		// collinear overlap of two vertical edges on x=0 with no shared vertex
		{{0, 0}, {2, 0}, {2, 3}, {0, 3}, {0, 1}, {1, 1}, {1, 2}, {0, 2}},
		// collinear overlap and a repeated vertex elsewhere: the repeat wins
		{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 1}, {1, 1}, {1, 4}, {0, 4}},
		// two squares touching at one corner (figure eight through a vertex)
		{{0, 0}, {2, 0}, {2, 2}, {4, 2}, {4, 4}, {2, 4}, {2, 2}, {0, 2}},
		// zero area: out and back along the same path
		{{0, 0}, {2, 0}, {2, 2}, {0, 2}, {0, 0}, {2, 0}, {2, 2}, {0, 2}},
	}
	for _, vs := range seeds {
		f.Add(encodeRaw(vs))
	}
	f.Add([]byte{1, 4, 3, 0xfe, 2, 1, 1})          // staircase walk: an L
	f.Add([]byte{1, 7, 2, 0xfb, 5, 3, 0xfe, 2, 1}) // staircase walk that crosses itself

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 257 {
			return // 128 vertices: the reference is cubic in spirit
		}
		vs := fuzzVertices(data)
		want := referenceNewPolygonErr(vs)
		p, got := NewPolygon(vs)
		if got != want {
			t.Fatalf("NewPolygon(%v): err = %v, reference = %v", vs, got, want)
		}
		if (p == nil) != (got != nil) {
			t.Fatalf("NewPolygon(%v): polygon %v with err %v", vs, p, got)
		}
		checkSlabAdd(t, vs, p, got)
		if p == nil {
			return
		}
		// An accepted polygon's table must be exactly its edges, normalised
		// and sorted.
		if len(p.vedges)+len(p.hedges) != len(vs) {
			t.Fatalf("edge table has %d+%d entries for %d vertices", len(p.vedges), len(p.hedges), len(vs))
		}
		for i := 1; i < len(p.vedges); i++ {
			a, b := p.vedges[i-1], p.vedges[i]
			if a.X > b.X || (a.X == b.X && a.Y1 >= b.Y1) {
				t.Fatalf("vertical edges out of order: %v", p.vedges)
			}
		}
		for i := 1; i < len(p.hedges); i++ {
			a, b := p.hedges[i-1], p.hedges[i]
			if a.Y > b.Y || (a.Y == b.Y && a.X1 >= b.X1) {
				t.Fatalf("horizontal edges out of order: %v", p.hedges)
			}
		}
	})
}
