package pixelbox

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// BandWalk is the exact pixel counter of the CPU port and of the host side of
// the simulated GPU.
//
// Between two consecutive distinct ordinates of its horizontal edges every
// pixel row of a rectilinear polygon has the same boundary crossings
// x0 < x1 < x2 < …, and its pixels on such a row are [x0,x1) ∪ [x2,x3) ∪ …:
// the polygon is a short list of bands. ‖p∩q‖ inside a box is therefore a sum
// over the maximal row intervals on which both polygons' bands are constant
// of interval height × the overlap of the two run lists clipped to the box's
// X range, which costs bands + crossings whatever the box's extent in
// pixels, and yields the integers a ContainsPixel loop over the box would.
//
// A polygon read through the store carries its bands ready made (geom.Bands);
// for any other the walk derives each band's crossings from the one below as
// it climbs, by the step the table was built with (geom.ToggleCrossings).
// Only that accessor differs. When both polygons also carry row masks
// (geom.Rows), Count does not walk at all: a row of the box is one AND of two
// shifted words and one popcount.
//
// The zero value is ready to use. It holds scratch reused across boxes and
// pairs, so one BandWalk serves one goroutine.
type BandWalk struct {
	p, q bandCursor
}

// Count returns the number of pixels of box inside both p and q. A nil
// polygon stands for the whole plane: Count(p, nil, box) is ‖p‖ within box.
func (w *BandWalk) Count(p, q *geom.Polygon, box geom.MBR) (n int64) {
	if box.IsEmpty() {
		return 0
	}
	if p != nil && q != nil {
		if pr, ok := p.Rows(); ok {
			if qr, ok := q.Rows(); ok {
				return countRows(pr, qr, p.MBR(), q.MBR(), box)
			}
		}
	}
	w.p.seek(p, box.MinY)
	w.q.seek(q, box.MinY)
	for y := box.MinY; ; {
		top := min(w.p.top, w.q.top, box.MaxY)
		n += (int64(top) - int64(y)) * overlap(w.p.xs, w.q.xs, box.MinX, box.MaxX)
		if top == box.MaxY {
			return n
		}
		y = top
		if w.p.top == y {
			w.p.climb()
		}
		if w.q.top == y {
			w.q.climb()
		}
	}
}

// countRows counts the pixels of box in both of two polygons, given their row
// masks and MBRs. Nothing outside an MBR is inside its polygon, so the box is
// first clipped to both; what is left is at most a word wide, and each of its
// rows is a word of each mask shifted to start at the box's left edge.
func countRows(pr, qr []uint64, pm, qm, box geom.MBR) int64 {
	box = box.Intersection(pm).Intersection(qm)
	if box.IsEmpty() {
		return 0
	}
	sp, sq := uint(box.MinX-pm.MinX), uint(box.MinX-qm.MinX)
	clip := ^uint64(0) >> (64 - uint(box.MaxX-box.MinX))
	pr = pr[box.MinY-pm.MinY : box.MaxY-pm.MinY]
	qr = qr[box.MinY-qm.MinY:][:len(pr)]
	n := 0
	for i, a := range pr {
		n += bits.OnesCount64((a >> sp) & (qr[i] >> sq) & clip)
	}
	return int64(n)
}

// overlap returns how many x in [minX, maxX) lie in a run of both lists.
func overlap(px, qx []int32, minX, maxX int32) (n int64) {
	for i, j := 0, 0; i < len(px) && j < len(qx); {
		lo, hi := max(px[i], qx[j], minX), min(px[i+1], qx[j+1], maxX)
		if hi > lo {
			n += int64(hi) - int64(lo)
		}
		if px[i+1] < qx[j+1] {
			i += 2
		} else {
			j += 2
		}
	}
	return n
}

// plane is the crossing list of the nil polygon: one run covering every x.
var plane = [2]int32{math.MinInt32, math.MaxInt32}

// bandCursor walks one polygon's bands upwards.
type bandCursor struct {
	top int32   // first row above the current band
	xs  []int32 // the band's crossings from left to right; none outside the polygon

	tabled bool
	tab    geom.Bands   // the polygon's table, if tabled
	he     []geom.HEdge // its horizontal edges otherwise
	next   int          // the band above the current one, or the first edge of he above it
	buf    [2][]int32   // behind xs, in turn, for a polygon without a table
	flip   int          // which of the two holds xs
}

// seek puts the cursor on the band holding row y.
func (c *bandCursor) seek(p *geom.Polygon, y int32) {
	if p == nil {
		c.xs, c.top = plane[:], math.MaxInt32
		return
	}
	c.tab, c.tabled = p.Bands()
	if c.tabled {
		// The band holding y is the one below the first boundary above y;
		// below the first boundary there is none.
		k, at := slices.BinarySearch(c.tab.Y, y)
		if at {
			k++
		}
		if k == 0 {
			c.next, c.xs, c.top = 0, nil, c.tab.Y[0]
			return
		}
		c.next = k - 1
		c.climb()
		return
	}
	c.he = p.HorizontalEdges()
	c.next, c.xs, c.top = 0, nil, math.MaxInt32
	if len(c.he) > 0 { // the zero Polygon has no edges, and no rows
		c.top = c.he[0].Y
	}
	for c.top <= y {
		c.climb()
	}
}

// climb moves the cursor to the band that starts at row top.
func (c *bandCursor) climb() {
	k := c.next
	if c.tabled {
		if t := &c.tab; k+1 < len(t.Y) {
			c.xs, c.top = t.X[t.Off[k]:t.Off[k+1]], t.Y[k+1]
		} else {
			c.xs, c.top = nil, math.MaxInt32 // above the polygon
		}
		c.next = k + 1
		return
	}
	end := k
	for end < len(c.he) && c.he[end].Y == c.top {
		end++
	}
	c.flip ^= 1 // xs, if not empty, is the other one
	into := &c.buf[c.flip]
	*into = geom.ToggleCrossings((*into)[:0], c.xs, c.he[k:end])
	c.xs, c.next, c.top = *into, end, math.MaxInt32
	if end < len(c.he) {
		c.top = c.he[end].Y
	}
}
