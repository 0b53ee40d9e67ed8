// Package rtree implements a Hilbert R-tree over polygon MBRs. The SCCG
// pipeline's builder stage bulk-loads one tree per polygon file (paper §4.1:
// "Since polygons are small, Hilbert R-Tree is used to accelerate index
// building"), and the filter stage runs a pairwise MBR join between the two
// trees of a tile to produce the candidate polygon-pair array consumed by the
// aggregator. The join descends both trees together and, inside each pair of
// leaves it reaches, sweeps the two leaves' entries in the MinX order Build
// keeps with every leaf (Brinkhoff, Kriegel & Seeger, SIGMOD '93), emitting
// the pairs in the order a nested loop over the two leaves would.
package rtree

import (
	"math/bits"
	"sort"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/hilbert"
)

// DefaultFanout is the default number of entries per node. Hilbert R-trees
// achieve near-100% node utilisation under bulk loading, so a moderate
// fanout keeps trees shallow without hurting packing.
const DefaultFanout = 16

// MaxFanout is the widest node Build makes: the leaf join marks an entry's
// hits in a 64-bit mask over the other leaf's positions. A wider
// Options.Fanout is clamped to it.
const MaxFanout = 64

// hilbertOrder is the order of the Hilbert curve used to sort entries. Keys
// are taken from doubled centres, so 16 bits per axis cover coordinates up to
// 32,768 pixels; beyond that keys collapse onto the grid's edge and the tree,
// still correct, packs such entries in input order.
const hilbertOrder = 16

// Entry is one indexed item: an MBR plus the caller's identifier for the
// underlying polygon (typically its index in the tile's polygon slice).
type Entry struct {
	MBR geom.MBR
	ID  int32
}

type node struct {
	mbr      geom.MBR
	children []*node // nil for leaves
	entries  []Entry // nil for internal nodes
	// byMinX holds a leaf's entry positions in (MinX, position) order; nil
	// for internal nodes. All leaves of a tree share one array.
	byMinX []uint8
}

// Tree is a bulk-loaded, read-only Hilbert R-tree.
type Tree struct {
	root   *node
	fanout int
	size   int
	// Stats filled during construction, consumed by the cost models.
	Height int
	Nodes  int
}

// Options configures tree construction.
type Options struct {
	// Fanout is the maximum entries per node: DefaultFanout when zero or
	// less, else clamped to [2, MaxFanout] (one entry a node would never
	// reach a root).
	Fanout int
}

// Build bulk-loads a Hilbert R-tree from entries using the Kamel–Faloutsos
// packing method: sort by the Hilbert value of each MBR centre, pack runs of
// `fanout` entries into leaves, then build upper levels the same way. Each
// leaf also records its entries' MinX order for the join's sweep.
// The input slice is sorted in place.
func Build(entries []Entry, opts Options) *Tree {
	fanout := opts.Fanout
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	fanout = min(max(fanout, 2), MaxFanout)
	t := &Tree{fanout: fanout, size: len(entries)}
	if len(entries) == 0 {
		return t
	}
	// Precompute each entry's Hilbert key once; recomputing it inside the
	// sort comparator would cost O(n log n) curve evaluations.
	keys := make([]uint64, len(entries))
	for i := range entries {
		keys[i] = hilbertKey(entries[i].MBR)
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	// Move each entry to its place, one cycle of the permutation at a time;
	// order[k] == k marks position k done.
	for i := range order {
		e, k := entries[i], i
		for order[k] != i {
			entries[k], order[k], k = entries[order[k]], k, order[k]
		}
		entries[k], order[k] = e, k
	}
	// Size every level first: the nodes, and the level slices that point at
	// them, each take one allocation, laid out leaves first.
	total := 0
	for n := len(entries); n > 1 || total == 0; {
		n = (n + fanout - 1) / fanout
		total += n
	}
	nodes, ptrs := make([]node, total), make([]*node, total)
	for i := range nodes {
		ptrs[i] = &nodes[i]
	}
	// Pack leaves.
	byMinX := make([]uint8, len(entries))
	level := ptrs[:0]
	for i := 0; i < len(entries); i += fanout {
		j := min(i+fanout, len(entries))
		leaf := ptrs[len(level)]
		leaf.entries, leaf.byMinX = entries[i:j:j], byMinX[i:j:j]
		leaf.mbr = geom.EmptyMBR()
		for _, e := range leaf.entries {
			leaf.mbr = leaf.mbr.Union(e.MBR)
		}
		sortByMinX(leaf.byMinX, leaf.entries)
		level = level[:len(level)+1]
	}
	t.Nodes += len(level)
	t.Height = 1
	// Build upper levels until a single root remains.
	for len(level) > 1 {
		next := ptrs[t.Nodes:t.Nodes]
		for i := 0; i < len(level); i += fanout {
			j := min(i+fanout, len(level))
			n := ptrs[t.Nodes+len(next)]
			n.children = level[i:j:j]
			n.mbr = geom.EmptyMBR()
			for _, c := range n.children {
				n.mbr = n.mbr.Union(c.mbr)
			}
			next = next[:len(next)+1]
		}
		level = next
		t.Nodes += len(level)
		t.Height++
	}
	t.root = level[0]
	return t
}

// sortByMinX fills order with the positions of entries, sorted by MinX and
// ties kept in position order. A leaf holds at most MaxFanout entries, so an
// insertion sort suffices.
func sortByMinX(order []uint8, entries []Entry) {
	for i := range order {
		p, x := uint8(i), entries[i].MBR.MinX
		j := i
		for ; j > 0 && entries[order[j-1]].MBR.MinX > x; j-- {
			order[j] = order[j-1]
		}
		order[j] = p
	}
}

// Index bulk-loads the tree the pipeline joins over one polygon set: entry i
// is polys[i]'s MBR under ID i. Build is deterministic in its entries, so a
// tree kept with the set joins in exactly the order one rebuilt
// from the set would.
func Index(polys []*geom.Polygon) *Tree {
	entries := make([]Entry, len(polys))
	for i, p := range polys {
		entries[i] = Entry{MBR: p.MBR(), ID: int32(i)}
	}
	return Build(entries, Options{})
}

// Bytes returns the memory the tree holds: its entries and their MinX
// orders, its nodes and the level slices that point at them.
func (t *Tree) Bytes() int64 {
	return int64(unsafe.Sizeof(*t)) + int64(t.size)*int64(unsafe.Sizeof(Entry{})+1) +
		int64(t.Nodes)*int64(unsafe.Sizeof(node{})+unsafe.Sizeof(&node{}))
}

// hilbertKey maps an MBR to the Hilbert value of its centre. Centres are
// doubled to stay integral; coordinates are clamped into the curve's grid.
func hilbertKey(m geom.MBR) uint64 {
	cx, cy := m.Center() // doubled coordinates
	x := clampGrid(cx)
	y := clampGrid(cy)
	return hilbert.XY2D(hilbertOrder, x, y)
}

func clampGrid(v int64) uint32 {
	if v < 0 {
		return 0
	}
	const maxGrid = 1<<hilbertOrder - 1
	if v > maxGrid {
		return maxGrid
	}
	return uint32(v)
}

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// Root MBR of the whole tree; empty when the tree is empty.
func (t *Tree) RootMBR() geom.MBR {
	if t.root == nil {
		return geom.MBR{}
	}
	return t.root.mbr
}

// SearchStats counts the node pairs a join visits and the entry tests it
// makes there; the cost models charge index-search time from these.
type SearchStats struct {
	NodesVisited  int
	EntriesTested int
}

// Pair is a candidate polygon pair produced by the spatial join: indices of
// entries from the two joined trees whose MBRs intersect.
type Pair struct {
	A, B int32
}

// Join performs a pairwise MBR spatial join between two trees, appending all
// (a.ID, b.ID) pairs with intersecting MBRs to dst: leaf pair by leaf pair
// in the order the two trees are descended, and within a leaf pair in a's
// and then b's leaf order. This implements the filter stage of the pipeline
// (paper §4.1, stage 3).
func Join(a, b *Tree, dst []Pair) ([]Pair, SearchStats) {
	if a.root == nil || b.root == nil {
		return dst, SearchStats{}
	}
	j := joiner{dst: dst}
	j.nodes(a.root, b.root)
	return j.dst, j.st
}

// joiner carries one Join's output, counters and leaf-sweep scratch down
// the recursion.
type joiner struct {
	dst []Pair
	st  SearchStats
	// xs and ys hold, in MinX order, the entries of the two leaves being
	// swept that meet the other leaf's MBR, with their positions in their
	// leaves; hits[p] marks the positions in y that position p of x meets.
	xs, ys     [MaxFanout]geom.MBR
	xpos, ypos [MaxFanout]uint8
	hits       [MaxFanout]uint64
}

func (j *joiner) nodes(x, y *node) {
	if !x.mbr.Intersects(y.mbr) {
		return
	}
	j.st.NodesVisited++
	switch {
	case x.entries != nil && y.entries != nil:
		j.leaves(x, y)
	case x.entries != nil: // descend y
		for _, c := range y.children {
			j.nodes(x, c)
		}
	case y.entries != nil: // descend x
		for _, c := range x.children {
			j.nodes(c, y)
		}
	default:
		for _, cx := range x.children {
			for _, cy := range y.children {
				j.nodes(cx, cy)
			}
		}
	}
}

// near copies into mbrs and pos, in MinX order, the entries of leaf l that
// meet window, and returns how many there are and how many it tested.
func near(l *node, window geom.MBR, mbrs *[MaxFanout]geom.MBR, pos *[MaxFanout]uint8) (n, tested int) {
	for ; tested < len(l.byMinX); tested++ {
		p := l.byMinX[tested]
		m := l.entries[p].MBR
		if m.MinX >= window.MaxX {
			break
		}
		if m.Intersects(window) {
			mbrs[n], pos[n] = m, p
			n++
		}
	}
	return n, tested
}

// leaves joins two leaves. Every entry of a leaf lies inside its MBR, so
// only entries that meet the other leaf's MBR can pair. Both such lists,
// in MinX order, are swept as one: the entry that starts first is tested
// against the other list's entries from the sweep front on, up to the
// first that starts at or past its right edge. The hits, marked by
// position, are emitted in x's and then y's position order: the pairs, in
// the order, of a nested loop over the two leaves. EntriesTested counts
// y's entries tested against x's MBR and the pairs the sweep tests.
func (j *joiner) leaves(x, y *node) {
	nx, _ := near(x, y.mbr, &j.xs, &j.xpos)
	ny, tested := near(y, x.mbr, &j.ys, &j.ypos)
	j.st.EntriesTested += tested
	if nx == 0 || ny == 0 {
		return
	}
	xs, ys, xpos, ypos := j.xs[:nx], j.ys[:ny], j.xpos[:nx], j.ypos[:ny]
	var rows uint64 // positions of x with hits
	for i, k := 0, 0; i < nx && k < ny; {
		if xs[i].MinX <= ys[k].MinX {
			a := &xs[i]
			l := k
			for ; l < ny && ys[l].MinX < a.MaxX; l++ {
				if a.Intersects(ys[l]) {
					j.hits[xpos[i]] |= 1 << ypos[l]
					rows |= 1 << xpos[i]
				}
			}
			j.st.EntriesTested += l - k
			i++
		} else {
			b := &ys[k]
			l := i
			for ; l < nx && xs[l].MinX < b.MaxX; l++ {
				if b.Intersects(xs[l]) {
					j.hits[xpos[l]] |= 1 << ypos[k]
					rows |= 1 << xpos[l]
				}
			}
			j.st.EntriesTested += l - i
			k++
		}
	}
	for ; rows != 0; rows &= rows - 1 {
		p := bits.TrailingZeros64(rows)
		ida := x.entries[p].ID
		for hits := j.hits[p]; hits != 0; hits &= hits - 1 {
			j.dst = append(j.dst, Pair{A: ida, B: y.entries[bits.TrailingZeros64(hits)].ID})
		}
		j.hits[p] = 0
	}
}
