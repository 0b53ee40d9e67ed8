// Package geom provides the geometric primitives used throughout the SCCG
// reproduction: integer points, minimum bounding rectangles, and rectilinear
// polygons as segmented from raster pathology images.
//
// Polygons extracted from medical images have a special structure that the
// whole system exploits (paper §3.1): vertex coordinates are integer-valued
// and every edge is either horizontal or vertical, because segmentation
// boundaries follow the pixel grid of the source raster image. A polygon is
// interpreted as the set of unit pixels enclosed by its boundary; the shoelace
// area of such a polygon equals its pixel count exactly.
//
// Every Polygon carries an edge table beside its vertex loop: its vertical
// edges as (X, Y1<Y2) sorted by X then Y1, and its horizontal edges as
// (Y, X1<X2) sorted by Y then X1. The constructor paths (NewPolygon, Slab.Add,
// Scale, Translate) build it once, and it is what the hot code reads — the ray cast
// of ContainsPixel, the Lemma-1 test of BoxPosition, the simplicity check of
// NewPolygon, and the band walk of internal/pixelbox — so none of them
// re-derives an edge's orientation or direction from the vertex loop.
// The sort order is part of the contract: the vertical edges covering a pixel
// row, read in table order, are that row's boundary crossings from left to
// right.
//
// Between two consecutive distinct horizontal-edge ordinates every pixel row
// has the same crossings, so a polygon is also a short list of bands, each
// with one crossing list. A polygon that will be compared many times can
// carry that list ready made: Slab.BuildBands derives a band table (Bands)
// from the finished edge tables of every polygon in the slab and, from the
// table of one at most 64 pixels wide, a bit mask per pixel row (Rows), which
// two polygons intersect one word at a time. Polygons built any other way
// have neither, and whoever walks their bands derives each from the one below
// with the step the tables are built by (ToggleCrossings); all three give the
// same integers.
package geom

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Point is an integer-valued vertex on the pixel grid of a source image.
type Point struct {
	X, Y int32
}

// String renders the point as "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// MBR is a minimum bounding rectangle in pixel-grid coordinates. The
// rectangle spans [MinX, MaxX] x [MinY, MaxY] in geometric coordinates, which
// covers the pixels with x in [MinX, MaxX) and y in [MinY, MaxY).
type MBR struct {
	MinX, MinY, MaxX, MaxY int32
}

// EmptyMBR returns an MBR that contains nothing and acts as the identity for
// Extend.
func EmptyMBR() MBR {
	return MBR{
		MinX: math.MaxInt32, MinY: math.MaxInt32,
		MaxX: math.MinInt32, MaxY: math.MinInt32,
	}
}

// IsEmpty reports whether the MBR covers no pixels.
func (m MBR) IsEmpty() bool { return m.MinX >= m.MaxX || m.MinY >= m.MaxY }

// Width returns the horizontal extent in pixels.
func (m MBR) Width() int32 {
	if m.IsEmpty() {
		return 0
	}
	return m.MaxX - m.MinX
}

// Height returns the vertical extent in pixels.
func (m MBR) Height() int32 {
	if m.IsEmpty() {
		return 0
	}
	return m.MaxY - m.MinY
}

// Pixels returns the number of pixels covered by the MBR.
func (m MBR) Pixels() int64 {
	if m.IsEmpty() {
		return 0
	}
	return int64(m.MaxX-m.MinX) * int64(m.MaxY-m.MinY)
}

// Intersects reports whether two MBRs share at least one pixel. This is the
// "&&" operator of the optimised cross-comparing query (paper Fig. 1b).
func (m MBR) Intersects(o MBR) bool {
	return m.MinX < o.MaxX && o.MinX < m.MaxX && m.MinY < o.MaxY && o.MinY < m.MaxY
}

// Touches reports whether two MBRs intersect or share a boundary.
func (m MBR) Touches(o MBR) bool {
	return m.MinX <= o.MaxX && o.MinX <= m.MaxX && m.MinY <= o.MaxY && o.MinY <= m.MaxY
}

// Intersection returns the overlapping region of two MBRs; the result is
// empty when they do not intersect.
func (m MBR) Intersection(o MBR) MBR {
	r := MBR{
		MinX: max32(m.MinX, o.MinX), MinY: max32(m.MinY, o.MinY),
		MaxX: min32(m.MaxX, o.MaxX), MaxY: min32(m.MaxY, o.MaxY),
	}
	if r.IsEmpty() {
		return MBR{}
	}
	return r
}

// Union returns the smallest MBR covering both inputs.
func (m MBR) Union(o MBR) MBR {
	if m.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return m
	}
	return MBR{
		MinX: min32(m.MinX, o.MinX), MinY: min32(m.MinY, o.MinY),
		MaxX: max32(m.MaxX, o.MaxX), MaxY: max32(m.MaxY, o.MaxY),
	}
}

// Extend grows the MBR to include p as a vertex (geometric coordinate).
func (m MBR) Extend(p Point) MBR {
	return MBR{
		MinX: min32(m.MinX, p.X), MinY: min32(m.MinY, p.Y),
		MaxX: max32(m.MaxX, p.X), MaxY: max32(m.MaxY, p.Y),
	}
}

// ContainsPixel reports whether the pixel at (x, y) lies inside the MBR.
func (m MBR) ContainsPixel(x, y int32) bool {
	return x >= m.MinX && x < m.MaxX && y >= m.MinY && y < m.MaxY
}

// Contains reports whether o lies entirely within m.
func (m MBR) Contains(o MBR) bool {
	if o.IsEmpty() {
		return true
	}
	return o.MinX >= m.MinX && o.MaxX <= m.MaxX && o.MinY >= m.MinY && o.MaxY <= m.MaxY
}

// Center returns the geometric centre of the MBR in doubled coordinates, so
// that half-integer centres remain exactly representable in integers.
func (m MBR) Center() (cx2, cy2 int64) {
	return int64(m.MinX) + int64(m.MaxX), int64(m.MinY) + int64(m.MaxY)
}

// Scale multiplies all coordinates by factor (used by the scale-factor
// experiments of paper §5.2, which grow polygons by multiplying vertex
// coordinates).
func (m MBR) Scale(factor int32) MBR {
	return MBR{m.MinX * factor, m.MinY * factor, m.MaxX * factor, m.MaxY * factor}
}

func (m MBR) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", m.MinX, m.MinY, m.MaxX, m.MaxY)
}

// HEdge is a horizontal polygon edge at height Y spanning [X1, X2] with
// X1 < X2 (normalised regardless of traversal direction).
type HEdge struct {
	Y, X1, X2 int32
}

// VEdge is a vertical polygon edge at abscissa X spanning [Y1, Y2] with
// Y1 < Y2 (normalised regardless of traversal direction).
type VEdge struct {
	X, Y1, Y2 int32
}

// Polygon is a simple rectilinear polygon: a closed loop of vertices with
// strictly alternating horizontal and vertical edges and integer coordinates.
// The vertex slice stores each corner exactly once; the closing edge from the
// last vertex back to the first is implicit.
//
// The zero value is an empty polygon with no area.
type Polygon struct {
	vertices []Point
	mbr      MBR
	area     int64    // pixel count; cached at construction
	vedges   []VEdge  // sorted by (X, Y1)
	hedges   []HEdge  // sorted by (Y, X1)
	bands    []int32  // packed band table (see Bands); nil when it has none
	rows     []uint64 // row masks (see Rows); nil when it has none
}

// Validation errors returned by NewPolygon.
var (
	ErrTooFewVertices   = errors.New("geom: rectilinear polygon needs at least 4 vertices")
	ErrOddVertexCount   = errors.New("geom: rectilinear polygon must have an even vertex count")
	ErrNotRectilinear   = errors.New("geom: consecutive vertices must differ in exactly one axis")
	ErrZeroLengthEdge   = errors.New("geom: polygon has a zero-length edge")
	ErrNotAlternating   = errors.New("geom: edges must alternate horizontal/vertical")
	ErrZeroArea         = errors.New("geom: polygon encloses no pixels")
	ErrRepeatedVertex   = errors.New("geom: polygon repeats a vertex")
	ErrSelfIntersecting = errors.New("geom: polygon boundary self-intersects")
)

// NewPolygon validates vertices as a simple rectilinear polygon and returns
// it. Vertices may wind in either direction; the implicit closing edge is
// checked like any other. Collinear runs are not permitted: every vertex must
// be a true corner, which is what boundary tracers emit. The polygon keeps
// the slice.
func NewPolygon(vertices []Point) (*Polygon, error) {
	if err := checkVertexCount(len(vertices)); err != nil {
		return nil, err
	}
	half := len(vertices) / 2
	p := new(Polygon)
	if err := p.build(vertices, make([]VEdge, half), make([]HEdge, half)); err != nil {
		return nil, err
	}
	return p, nil
}

// Slab is the backing storage of a set of polygons decoded together: one
// vertex array, one array per half of the edge table, one Polygon array and,
// once BuildBands has run, one band-table array and one row-mask array, where
// NewPolygon would allocate four objects per polygon. Every polygon gets
// capacity-capped sub-slices, so none can grow into its neighbour's.
type Slab struct {
	pts   []Point
	ve    []VEdge
	he    []HEdge
	polys []Polygon
	bands []int32
	rows  []uint64
}

// NewSlab returns a slab with room for the given number of polygons holding
// the given number of vertices between them. Asking it for more panics.
func NewSlab(polygons, vertices int) *Slab {
	return &Slab{
		pts:   make([]Point, 0, vertices),
		ve:    make([]VEdge, 0, vertices/2),
		he:    make([]HEdge, 0, vertices/2),
		polys: make([]Polygon, 0, polygons),
	}
}

// Bytes returns the size of the slab's arrays: what keeping its polygons
// reachable costs.
func (s *Slab) Bytes() int64 {
	return int64(cap(s.pts))*int64(unsafe.Sizeof(Point{})) +
		int64(cap(s.ve))*int64(unsafe.Sizeof(VEdge{})) +
		int64(cap(s.he))*int64(unsafe.Sizeof(HEdge{})) +
		int64(cap(s.polys))*int64(unsafe.Sizeof(Polygon{})) +
		int64(cap(s.bands))*int64(unsafe.Sizeof(int32(0))) +
		int64(cap(s.rows))*int64(unsafe.Sizeof(uint64(0)))
}

// Vertices carves the next n vertices out of the slab for the caller to fill
// and hand to Add.
func (s *Slab) Vertices(n int) []Point {
	off := len(s.pts)
	s.pts = s.pts[:off+n]
	return s.pts[off : off+n : off+n]
}

// Add is NewPolygon with the polygon and its edge table placed in the slab.
func (s *Slab) Add(vertices []Point) (*Polygon, error) {
	if err := checkVertexCount(len(vertices)); err != nil {
		return nil, err
	}
	half := len(vertices) / 2
	nv, nh, np := len(s.ve), len(s.he), len(s.polys)
	s.ve, s.he, s.polys = s.ve[:nv+half], s.he[:nh+half], s.polys[:np+1]
	p := &s.polys[np]
	if err := p.build(vertices, s.ve[nv:nv+half:nv+half], s.he[nh:nh+half:nh+half]); err != nil {
		// The slab's polygons are the accepted ones: BuildBands trusts them.
		s.polys = s.polys[:np]
		return nil, err
	}
	return p, nil
}

func checkVertexCount(n int) error {
	if n < 4 {
		return ErrTooFewVertices
	}
	if n%2 != 0 {
		return ErrOddVertexCount
	}
	return nil
}

// tableEdge is an edge on its way into the table: the two fields its half of
// the table is ordered by packed into one key, the third carried along.
type tableEdge struct {
	key uint64
	hi  int32
}

// packKey orders as (a, b) does: flipping the sign bits makes unsigned order
// signed order.
func packKey(a, b int32) uint64 {
	return uint64(uint32(a)^1<<31)<<32 | uint64(uint32(b)^1<<31)
}

func (e tableEdge) unpack() (a, b, hi int32) {
	return int32(uint32(e.key>>32) ^ 1<<31), int32(uint32(e.key) ^ 1<<31), e.hi
}

// sortTableEdges sorts by key. The table of a cell boundary has a few dozen
// entries, which an insertion sort over plain integers orders in a fraction of
// the time a comparison callback costs.
func sortTableEdges(es []tableEdge) {
	if len(es) > 48 {
		slices.SortFunc(es, func(a, b tableEdge) int { return cmp.Compare(a.key, b.key) })
		return
	}
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i
		for ; j > 0 && es[j-1].key > e.key; j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

// build is the one validation and construction path: it checks vertices, whose
// count checkVertexCount has passed, and fills *p, writing the sorted edge
// table into ve and he (len(vertices)/2 entries each).
func (p *Polygon) build(vertices []Point, ve []VEdge, he []HEdge) error {
	n := len(vertices)
	// Edges are collected as packed keys, verticals from the front and
	// horizontals from the back; an alternating loop has n/2 of each.
	var stack [128]tableEdge
	edges := stack[:]
	if n > len(stack) {
		edges = make([]tableEdge, n)
	}
	nv, nh := 0, n
	mbr := EmptyMBR()
	prevHorizontal := false
	a := vertices[0]
	for i := 0; i < n; i++ {
		b := vertices[0]
		if i+1 < n {
			b = vertices[i+1]
		}
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
		if horizontal {
			nh--
			edges[nh] = tableEdge{packKey(a.Y, min32(a.X, b.X)), max32(a.X, b.X)}
		} else {
			edges[nv] = tableEdge{packKey(a.X, min32(a.Y, b.Y)), max32(a.Y, b.Y)}
			nv++
		}
		mbr = mbr.Extend(a)
		a = b
	}
	// The closing edge (n-1 -> 0) and the first edge (0 -> 1) must also
	// alternate; since n is even and edges alternate pairwise this is
	// guaranteed, but verify to be safe against n==4 degenerate inputs.
	last := edgeHorizontal(vertices[n-1], vertices[0])
	first := edgeHorizontal(vertices[0], vertices[1])
	if last == first {
		return ErrNotAlternating
	}
	area := shoelace(vertices)
	if area == 0 {
		return ErrZeroArea
	}
	sortTableEdges(edges[:nv])
	sortTableEdges(edges[nh:n])
	for i, e := range edges[:nv] {
		ve[i].X, ve[i].Y1, ve[i].Y2 = e.unpack()
	}
	for i, e := range edges[nh:n] {
		he[i].Y, he[i].X1, he[i].X2 = e.unpack()
	}
	*p = Polygon{vertices: vertices, mbr: mbr, area: area, vedges: ve, hedges: he}
	return p.checkSimple()
}

// MustPolygon is NewPolygon that panics on invalid input; for tests and
// literals.
func MustPolygon(vertices []Point) *Polygon {
	p, err := NewPolygon(vertices)
	if err != nil {
		panic(err)
	}
	return p
}

func edgeHorizontal(a, b Point) bool { return a.Y == b.Y }

// shoelace returns the absolute polygon area via the surveyor's formula,
// A = |sum(x_i*y_{i+1} - x_{i+1}*y_i)| / 2. For rectilinear integer polygons
// the sum is always even and the result equals the enclosed pixel count.
func shoelace(vs []Point) int64 {
	var sum int64
	a := vs[len(vs)-1]
	for _, b := range vs {
		sum += int64(a.X)*int64(b.Y) - int64(b.X)*int64(a.Y)
		a = b
	}
	if sum < 0 {
		sum = -sum
	}
	return sum / 2
}

// checkSimple verifies on the sorted edge table that no vertex repeats and
// no two edges meet anywhere but at the corner joining consecutive edges.
//
// Every vertex ends exactly one vertical edge, so a repeated vertex is two
// vertical edges of one column sharing an endpoint; sorted by Y1, the edges of
// a column either run strictly apart, each ending below the next one's start,
// or some adjacent pair touches or overlaps. The same holds for the rows of
// horizontal edges. A horizontal edge can only be crossed by the verticals
// whose X lies strictly inside its span, a contiguous range of the table.
//
// Which sentinel a broken polygon gets depends on whether any vertex repeats
// anywhere, so that question is settled separately, on the failure path only.
func (p *Polygon) checkSimple() error {
	if p.simple() {
		return nil
	}
	if hasRepeatedVertex(p.vertices) {
		return ErrRepeatedVertex
	}
	return ErrSelfIntersecting
}

func (p *Polygon) simple() bool {
	vs, hs := p.vedges, p.hedges
	for i := 1; i < len(vs); i++ {
		if vs[i-1].X == vs[i].X && vs[i-1].Y2 >= vs[i].Y1 {
			return false
		}
	}
	for i := 1; i < len(hs); i++ {
		if hs[i-1].Y == hs[i].Y && hs[i-1].X2 >= hs[i].X1 {
			return false
		}
	}
	for _, h := range hs {
		if h.X1+1 >= h.X2 {
			continue // no grid line lies strictly inside a unit-wide span
		}
		// First vertical with X > h.X1, by binary search on the sorted table.
		lo, hi := 0, len(vs)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); vs[mid].X <= h.X1 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for _, v := range vs[lo:] {
			if v.X >= h.X2 {
				break
			}
			if v.Y1 < h.Y && h.Y < v.Y2 {
				return false
			}
		}
	}
	return true
}

func hasRepeatedVertex(vertices []Point) bool {
	vs := slices.Clone(vertices)
	slices.SortFunc(vs, func(a, b Point) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
	})
	for i := 1; i < len(vs); i++ {
		if vs[i-1] == vs[i] {
			return true
		}
	}
	return false
}

// Vertices returns the polygon's vertex loop. Callers must not modify it.
func (p *Polygon) Vertices() []Point { return p.vertices }

// NumVertices returns the number of corners.
func (p *Polygon) NumVertices() int { return len(p.vertices) }

// MBR returns the polygon's minimum bounding rectangle.
func (p *Polygon) MBR() MBR { return p.mbr }

// Area returns the enclosed pixel count (exact).
func (p *Polygon) Area() int64 { return p.area }

// VerticalEdges returns the vertical half of the edge table: every vertical
// edge normalised so Y1 < Y2, sorted by X then Y1. Callers must not modify it.
func (p *Polygon) VerticalEdges() []VEdge { return p.vedges }

// HorizontalEdges returns the horizontal half of the edge table: every
// horizontal edge normalised so X1 < X2, sorted by Y then X1. Callers must not
// modify it.
func (p *Polygon) HorizontalEdges() []HEdge { return p.hedges }

// ContainsPixel reports whether the unit pixel at (x, y) — the square
// [x,x+1) x [y,y+1) — lies inside the polygon. The test casts a horizontal
// ray from the pixel centre towards -infinity and counts crossings with
// vertical edges (paper §3.1, Fig. 4b). Because edges sit on integer grid
// lines and the centre sits at half-integers, the ray never grazes a vertex
// and the parity test is exact in integer arithmetic.
func (p *Polygon) ContainsPixel(x, y int32) bool {
	if !p.mbr.ContainsPixel(x, y) {
		return false
	}
	inside := false
	for _, e := range p.vedges {
		if e.X > x {
			break // sorted by X: every later edge lies right of the pixel centre
		}
		// Edge at abscissa e.X crosses the ray y' = y+0.5, x' < x+0.5
		// iff e.X <= x and Y1 <= y < Y2.
		if e.Y1 <= y && y < e.Y2 {
			inside = !inside
		}
	}
	return inside
}

// ContainsCenter2 reports whether the point (cx2/2, cy2/2), given in doubled
// coordinates, lies strictly inside the polygon. Callers must ensure the
// point does not lie exactly on the boundary (odd doubled coordinates are
// always safe). Used by the Lemma-1 sampling-box position test.
func (p *Polygon) ContainsCenter2(cx2, cy2 int64) bool {
	inside := false
	for _, e := range p.vedges {
		if int64(e.X)*2 >= cx2 {
			break
		}
		if int64(e.Y1)*2 < cy2 && cy2 < int64(e.Y2)*2 {
			inside = !inside
		}
	}
	return inside
}

// BoxPosition classifies a sampling box against the polygon per Lemma 1 of
// the paper: Inside (every pixel of the box is inside), Outside (every pixel
// outside), or Hover (mixed). The box is the pixel rectangle b, i.e. the
// geometric square [b.MinX, b.MaxX] x [b.MinY, b.MaxY].
//
// The implementation uses an equivalent, robust formulation of the lemma's
// three conditions: the box hovers iff some polygon edge passes through the
// box's open interior (which subsumes both "an edge crosses a box edge" and
// "a polygon vertex lies inside the box"); otherwise the position of the
// box's geometric centre decides Inside vs Outside. Boundary segments lying
// exactly on the box border do not force Hover — the paper notes such boxes
// may be classified either way, and the next refinement level resolves them.
func (p *Polygon) BoxPosition(b MBR) BoxPos {
	if !p.mbr.Intersects(b) {
		return BoxOutside
	}
	for _, e := range p.vedges {
		if e.X >= b.MaxX {
			break
		}
		if b.MinX < e.X && e.Y1 < b.MaxY && b.MinY < e.Y2 {
			return BoxHover
		}
	}
	for _, e := range p.hedges {
		if e.Y >= b.MaxY {
			break
		}
		if b.MinY < e.Y && e.X1 < b.MaxX && b.MinX < e.X2 {
			return BoxHover
		}
	}
	// Lemma 1 condition (iii) tests the box's geometric centre; once the box
	// is known not to hover, every pixel of the box lies on the same side,
	// so the centre of the box's first pixel — always at half-integer
	// coordinates, hence never on the boundary grid — decides robustly.
	if p.ContainsPixel(b.MinX, b.MinY) {
		return BoxInside
	}
	return BoxOutside
}

// BoxPos is the position of a sampling box relative to a polygon (paper
// Fig. 5).
type BoxPos uint8

// Sampling-box positions.
const (
	BoxOutside BoxPos = iota // every pixel of the box lies outside the polygon
	BoxInside                // every pixel of the box lies inside the polygon
	BoxHover                 // the polygon boundary passes through the box
)

func (b BoxPos) String() string {
	switch b {
	case BoxOutside:
		return "outside"
	case BoxInside:
		return "inside"
	case BoxHover:
		return "hover"
	default:
		return fmt.Sprintf("BoxPos(%d)", uint8(b))
	}
}

// Scale returns a copy of the polygon with every vertex coordinate multiplied
// by factor, growing its pixel area by factor^2. This mirrors the paper's
// stress test (§5.2), which scales vertex coordinates by factors 1–5.
func (p *Polygon) Scale(factor int32) *Polygon {
	if factor == 1 {
		return p
	}
	out := &Polygon{
		vertices: make([]Point, len(p.vertices)),
		mbr:      p.mbr.Scale(factor),
		area:     p.area * int64(factor) * int64(factor),
		vedges:   make([]VEdge, len(p.vedges)),
		hedges:   make([]HEdge, len(p.hedges)),
	}
	for i, v := range p.vertices {
		out.vertices[i] = Point{v.X * factor, v.Y * factor}
	}
	// A positive factor keeps every edge's normalisation and the table's
	// sort order, so the table is mapped, not rebuilt.
	for i, e := range p.vedges {
		out.vedges[i] = VEdge{e.X * factor, e.Y1 * factor, e.Y2 * factor}
	}
	for i, e := range p.hedges {
		out.hedges[i] = HEdge{e.Y * factor, e.X1 * factor, e.X2 * factor}
	}
	return out
}

// Translate returns a copy of the polygon shifted by (dx, dy).
func (p *Polygon) Translate(dx, dy int32) *Polygon {
	out := &Polygon{
		vertices: make([]Point, len(p.vertices)),
		mbr: MBR{p.mbr.MinX + dx, p.mbr.MinY + dy,
			p.mbr.MaxX + dx, p.mbr.MaxY + dy},
		area:   p.area,
		vedges: make([]VEdge, len(p.vedges)),
		hedges: make([]HEdge, len(p.hedges)),
	}
	for i, v := range p.vertices {
		out.vertices[i] = Point{v.X + dx, v.Y + dy}
	}
	for i, e := range p.vedges {
		out.vedges[i] = VEdge{e.X + dx, e.Y1 + dy, e.Y2 + dy}
	}
	for i, e := range p.hedges {
		out.hedges[i] = HEdge{e.Y + dy, e.X1 + dx, e.X2 + dx}
	}
	return out
}

// Rect builds the rectangle polygon covering pixels [x0,x1) x [y0,y1).
func Rect(x0, y0, x1, y1 int32) *Polygon {
	return MustPolygon([]Point{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}})
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
