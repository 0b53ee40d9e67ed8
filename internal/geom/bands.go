package geom

import "sync"

// Bands is a polygon's band table. Y holds the distinct ordinates of its
// horizontal edges in ascending order; band k covers the pixel rows
// [Y[k], Y[k+1]), and X[Off[k]:Off[k+1]] are the boundary crossings of every
// one of those rows from left to right, so the polygon's pixels on such a row
// are [x0,x1) ∪ [x2,x3) ∪ …. Y and Off have one entry more than there are
// bands. Callers must not modify any of it.
type Bands struct {
	Y, Off, X []int32
}

// Bands returns the polygon's band table, if Slab.BuildBands gave it one.
func (p *Polygon) Bands() (Bands, bool) {
	t := p.bands
	if t == nil {
		return Bands{}, false
	}
	// Packed as Off | Y | crossings, offsets counted from the start of the
	// slice, so the first offset is also where the two headers end.
	n := int(t[0]) / 2
	return Bands{Off: t[:n], Y: t[n : 2*n], X: t}, true
}

// maxBandCrossings caps a band table at this many crossings per vertex. A
// cell boundary has about one (its vertical edges span few bands each); a comb
// whose teeth all differ in length has a number quadratic in its vertices,
// and is left without a table rather than allowed to multiply what a decoded
// set costs to keep.
const maxBandCrossings = 4

// BuildBands gives every polygon in the slab a band table, except those over
// the maxBandCrossings cap. Call it after the last Add and before the
// polygons are shared: it writes to them. The tables live in one array sized
// to fit, which Bytes counts.
func (s *Slab) BuildBands() {
	sc := bandScratch.Get().(*bandBuild)
	all, ends := sc.all[:0], sc.ends[:0]
	for i := range s.polys {
		all, _ = appendBands(all, &s.polys[i])
		ends = append(ends, len(all))
	}
	s.bands = make([]int32, len(all))
	copy(s.bands, all)
	at := 0
	for i, end := range ends {
		if end > at {
			s.polys[i].bands = s.bands[at:end:end]
		}
		at = end
	}
	sc.all, sc.ends = all, ends
	bandScratch.Put(sc)
}

// bandBuild is what BuildBands sweeps into before it knows how much storage
// the tables need; reused, because a decode miss builds one set after another.
type bandBuild struct {
	all  []int32
	ends []int
}

var bandScratch = sync.Pool{New: func() any { return new(bandBuild) }}

// appendBands appends p's packed band table to dst, or returns dst as it was
// and false when the table would exceed the cap. p must have passed build.
func appendBands(dst []int32, p *Polygon) ([]int32, bool) {
	hs := p.hedges
	nY := 1
	for i := 1; i < len(hs); i++ {
		if hs[i].Y != hs[i-1].Y {
			nY++
		}
	}
	base := len(dst)
	limit := base + 2*nY + maxBandCrossings*len(p.vertices)
	dst = append(dst, make([]int32, 2*nY)...)
	prev := dst[len(dst):]
	for i, k := 0, 0; ; k++ {
		y := hs[i].Y
		// Indexed through dst, not through sub-slices taken earlier: an
		// append may have moved it.
		dst[base+k], dst[base+nY+k] = int32(len(dst)-base), y
		if k == nY-1 {
			return dst, true // the top boundary toggles everything off
		}
		row := i
		for hs[i].Y == y {
			i++
		}
		start := len(dst)
		dst = ToggleCrossings(dst, prev, hs[row:i])
		if len(dst) > limit {
			return dst[:base], false
		}
		prev = dst[start:]
	}
}

// ToggleCrossings appends to dst the crossings of the band above a band
// boundary, given prev, the crossings of the band below it, and row, every
// horizontal edge lying on the boundary, both from left to right. dst may
// share prev's array as long as it does not overlap it.
//
// Every vertex ends exactly one vertical edge, so each endpoint of a
// horizontal edge on the boundary either ends a crossing of the band below or
// starts one of the band above: the new list is the old one with those
// endpoints toggled, a merge of two sorted lists. This is all a band sweep
// needs; the vertical edges are never read.
func ToggleCrossings(dst, prev []int32, row []HEdge) []int32 {
	j := 0
	for _, h := range row {
		for _, x := range [2]int32{h.X1, h.X2} {
			for j < len(prev) && prev[j] < x {
				dst = append(dst, prev[j])
				j++
			}
			if j < len(prev) && prev[j] == x {
				j++
			} else {
				dst = append(dst, x)
			}
		}
	}
	return append(dst, prev[j:]...)
}
