package experiments

import (
	"repro/internal/geom"
	"repro/internal/pixelbox"
)

// literalThreshold is the literal port's pixelization threshold: with no
// thread block to feed, a quad split and a small leaf worked best for it.
const literalThreshold = 64

// LiteralCPU is the paper's PixelBox-CPU-S (§4.2, Fig. 7): the GPU kernel
// translated to one core as written — sampling boxes refined by a quad
// split, and below the threshold every pixel of the box tested against both
// polygons by its own ray cast. It is what the paper measured, so Fig7 and
// Calibrate time it, and it is a second oracle for pixelbox's band walk. The
// service computes with pixelbox.RunCPU and cannot import this package.
func LiteralCPU(pairs []pixelbox.Pair) []pixelbox.AreaResult {
	results := make([]pixelbox.AreaResult, len(pairs))
	for i, pr := range pairs {
		res := pixelbox.AreaResult{Union: pr.P.Area() + pr.Q.Area()}
		if window := pr.P.MBR().Intersection(pr.Q.MBR()); !window.IsEmpty() {
			res.Intersection = literalRefine(pr.P, pr.Q, window)
			res.Union -= res.Intersection
		}
		results[i] = res
	}
	return results
}

// literalRefine classifies a box against both polygons (Lemma 1) and
// quad-splits hovering boxes down to the threshold.
func literalRefine(p, q *geom.Polygon, box geom.MBR) int64 {
	φ1 := p.BoxPosition(box)
	if φ1 == geom.BoxOutside {
		return 0
	}
	φ2 := q.BoxPosition(box)
	if φ2 == geom.BoxOutside {
		return 0
	}
	if φ1 == geom.BoxInside && φ2 == geom.BoxInside {
		return box.Pixels()
	}
	if box.Pixels() <= literalThreshold {
		var inter int64
		for y := box.MinY; y < box.MaxY; y++ {
			for x := box.MinX; x < box.MaxX; x++ {
				if p.ContainsPixel(x, y) && q.ContainsPixel(x, y) {
					inter++
				}
			}
		}
		return inter
	}
	midX := box.MinX + box.Width()/2
	midY := box.MinY + box.Height()/2
	var total int64
	for _, qd := range [4]geom.MBR{
		{MinX: box.MinX, MinY: box.MinY, MaxX: midX, MaxY: midY},
		{MinX: midX, MinY: box.MinY, MaxX: box.MaxX, MaxY: midY},
		{MinX: box.MinX, MinY: midY, MaxX: midX, MaxY: box.MaxY},
		{MinX: midX, MinY: midY, MaxX: box.MaxX, MaxY: box.MaxY},
	} {
		if !qd.IsEmpty() {
			total += literalRefine(p, q, qd)
		}
	}
	return total
}
