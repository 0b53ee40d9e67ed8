package pixelbox

import "repro/internal/geom"

// rowRuns is the exact pixel counter under every leaf of the refinement, on
// the CPU port and on the host side of the simulated GPU alike.
//
// A pixel row of a rectilinear polygon is a set of runs: the vertical edges
// covering row y, read in the edge table's X order, are the row's boundary
// crossings x0 < x1 < x2 < …, and the polygon's pixels on that row are
// exactly [x0,x1) ∪ [x2,x3) ∪ …. Clamping each crossing into the box's X
// range clips every run to the box (runs outside it collapse to length zero),
// so a row costs one pass over each polygon's vertical edges plus a
// two-pointer merge of two short sorted lists, whatever the box's width. The
// counts are the integers a per-pixel ContainsPixel loop over the box yields.
//
// The slices are scratch reused across rows, boxes and pairs.
type rowRuns struct {
	px, qx []int32
}

// count returns, within box, the pixels in both polygons, in p, and in q
// (the box's union count is inP + inQ − inter).
func (r *rowRuns) count(p, q *geom.Polygon, box geom.MBR) (inter, inP, inQ int64) {
	pv, qv := p.VerticalEdges(), q.VerticalEdges()
	for y := box.MinY; y < box.MaxY; y++ {
		r.px = rowCrossings(r.px[:0], pv, y, box.MinX, box.MaxX)
		r.qx = rowCrossings(r.qx[:0], qv, y, box.MinX, box.MaxX)
		px, qx := r.px, r.qx
		for i := 0; i < len(px); i += 2 {
			inP += int64(px[i+1] - px[i])
		}
		for j := 0; j < len(qx); j += 2 {
			inQ += int64(qx[j+1] - qx[j])
		}
		for i, j := 0, 0; i < len(px) && j < len(qx); {
			lo, hi := max(px[i], qx[j]), min(px[i+1], qx[j+1])
			if hi > lo {
				inter += int64(hi - lo)
			}
			if px[i+1] < qx[j+1] {
				i += 2
			} else {
				j += 2
			}
		}
	}
	return inter, inP, inQ
}

// rowCrossings appends the crossings of row y clamped into [minX, maxX], as
// run (start, end) pairs. edges must be sorted by X.
func rowCrossings(out []int32, edges []geom.VEdge, y, minX, maxX int32) []int32 {
	for _, e := range edges {
		if e.X >= maxX {
			break
		}
		if e.Y1 <= y && y < e.Y2 {
			out = append(out, max(e.X, minX))
		}
	}
	if len(out)%2 == 1 {
		out = append(out, maxX) // a run still open at the box's right border
	}
	return out
}
