// Package geomtest provides shared helpers for property-based testing of
// the geometry, overlay and PixelBox packages: random rectilinear polygon
// generation and brute-force pixel-counting oracles.
package geomtest

import (
	"math/rand"

	"repro/internal/clip"
	"repro/internal/geom"
)

// RandomPolygon generates a random simple rectilinear polygon whose MBR fits
// within [0, size) x [0, size): the union of a few random rectangles, with
// holes filled, traced into its largest boundary ring. Returns nil rarely,
// when the random region degenerates; callers should retry.
func RandomPolygon(rng *rand.Rand, size int32) *geom.Polygon {
	if size < 4 {
		size = 4
	}
	nRects := 1 + rng.Intn(5)
	// Anchor rectangles around a common centre so their union is usually
	// connected.
	cx := 1 + rng.Int31n(size-2)
	cy := 1 + rng.Int31n(size-2)
	region := make([]geom.MBR, 0, nRects)
	for i := 0; i < nRects; i++ {
		w := 1 + rng.Int31n(size/2)
		h := 1 + rng.Int31n(size/2)
		x0 := cx - rng.Int31n(w+1)
		y0 := cy - rng.Int31n(h+1)
		if x0 < 0 {
			x0 = 0
		}
		if y0 < 0 {
			y0 = 0
		}
		x1, y1 := x0+w, y0+h
		if x1 > size {
			x1 = size
		}
		if y1 > size {
			y1 = size
		}
		if x1 <= x0 || y1 <= y0 {
			continue
		}
		region = append(region, geom.MBR{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1})
	}
	if len(region) == 0 {
		return nil
	}
	// Normalise the overlapping rectangles into a disjoint cover, pick the
	// largest boundary ring, and fill its holes by re-tracing only the
	// outer ring.
	disjoint := disjointCover(region)
	rings := clip.RegionToRings(disjoint)
	var best *clip.Ring
	for i := range rings {
		if rings[i].IsHole() {
			continue
		}
		if best == nil || rings[i].SignedArea > best.SignedArea {
			best = &rings[i]
		}
	}
	if best == nil {
		return nil
	}
	p, err := best.Polygon()
	if err != nil {
		return nil
	}
	return p
}

// disjointCover converts possibly-overlapping rectangles into a disjoint
// rectangle cover of their union by folding them together pairwise with the
// union overlay.
func disjointCover(rects []geom.MBR) []geom.MBR {
	if len(rects) == 0 {
		return nil
	}
	acc := []geom.MBR{rects[0]}
	for _, r := range rects[1:] {
		a := regionPoly(acc)
		b := regionPoly([]geom.MBR{r})
		if a == nil || b == nil {
			continue
		}
		acc = clip.Overlay(a, b, clip.OpOr)
	}
	return acc
}

// regionPoly turns a disjoint rect cover into its largest outer polygon
// (good enough for test-data generation).
func regionPoly(rects []geom.MBR) *geom.Polygon {
	polys := clip.RegionToPolygons(rects)
	var best *geom.Polygon
	for _, p := range polys {
		if best == nil || p.Area() > best.Area() {
			best = p
		}
	}
	return best
}

// BruteIntersectionArea counts intersection pixels exhaustively via
// per-pixel ray casting: the oracle every exact algorithm must match.
func BruteIntersectionArea(p, q *geom.Polygon) int64 {
	w := p.MBR().Intersection(q.MBR())
	var n int64
	for y := w.MinY; y < w.MaxY; y++ {
		for x := w.MinX; x < w.MaxX; x++ {
			if p.ContainsPixel(x, y) && q.ContainsPixel(x, y) {
				n++
			}
		}
	}
	return n
}

// BruteArea counts a polygon's pixels exhaustively.
func BruteArea(p *geom.Polygon) int64 {
	m := p.MBR()
	var n int64
	for y := m.MinY; y < m.MaxY; y++ {
		for x := m.MinX; x < m.MaxX; x++ {
			if p.ContainsPixel(x, y) {
				n++
			}
		}
	}
	return n
}

// BruteUnionArea counts union pixels exhaustively.
func BruteUnionArea(p, q *geom.Polygon) int64 {
	w := p.MBR().Union(q.MBR())
	var n int64
	for y := w.MinY; y < w.MaxY; y++ {
		for x := w.MinX; x < w.MaxX; x++ {
			if p.ContainsPixel(x, y) || q.ContainsPixel(x, y) {
				n++
			}
		}
	}
	return n
}

// BruteBoxCounts counts, over the pixels of box, those inside both polygons,
// inside p and inside q, by ray-casting every pixel against both.
func BruteBoxCounts(p, q *geom.Polygon, box geom.MBR) (inter, inP, inQ int64) {
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

// WithBands returns copies of polys built the way the store builds the
// polygons it keeps: in one slab, with band tables and row masks.
func WithBands(polys ...*geom.Polygon) []*geom.Polygon {
	vertices := 0
	for _, p := range polys {
		vertices += p.NumVertices()
	}
	slab := geom.NewSlab(len(polys), vertices)
	out := make([]*geom.Polygon, len(polys))
	for i, p := range polys {
		vs := slab.Vertices(p.NumVertices())
		copy(vs, p.Vertices())
		q, err := slab.Add(vs)
		if err != nil {
			panic(err) // p was a polygon
		}
		out[i] = q
	}
	slab.BuildBands()
	return out
}
