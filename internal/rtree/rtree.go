// Package rtree implements a Hilbert R-tree over polygon MBRs. The SCCG
// pipeline's builder stage bulk-loads one tree per polygon file (paper §4.1:
// "Since polygons are small, Hilbert R-Tree is used to accelerate index
// building"), and the filter stage runs a pairwise MBR join between the two
// trees of a tile to produce the candidate polygon-pair array consumed by the
// aggregator.
package rtree

import (
	"sort"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/hilbert"
)

// DefaultFanout is the default number of entries per node. Hilbert R-trees
// achieve near-100% node utilisation under bulk loading, so a moderate
// fanout keeps trees shallow without hurting packing.
const DefaultFanout = 16

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
	// Fanout is the maximum entries per node; DefaultFanout when zero.
	Fanout int
}

// Build bulk-loads a Hilbert R-tree from entries using the Kamel–Faloutsos
// packing method: sort by the Hilbert value of each MBR centre, pack runs of
// `fanout` entries into leaves, then build upper levels the same way.
// The input slice is sorted in place.
func Build(entries []Entry, opts Options) *Tree {
	fanout := opts.Fanout
	if fanout <= 0 {
		fanout = DefaultFanout
	}
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
	sorted := make([]Entry, len(entries))
	for i, idx := range order {
		sorted[i] = entries[idx]
	}
	copy(entries, sorted)
	// Pack leaves.
	level := make([]*node, 0, (len(entries)+fanout-1)/fanout)
	for i := 0; i < len(entries); i += fanout {
		j := i + fanout
		if j > len(entries) {
			j = len(entries)
		}
		leaf := &node{entries: entries[i:j:j]}
		leaf.mbr = geom.EmptyMBR()
		for _, e := range leaf.entries {
			leaf.mbr = leaf.mbr.Union(e.MBR)
		}
		level = append(level, leaf)
	}
	t.Nodes += len(level)
	t.Height = 1
	// Build upper levels until a single root remains.
	for len(level) > 1 {
		next := make([]*node, 0, (len(level)+fanout-1)/fanout)
		for i := 0; i < len(level); i += fanout {
			j := i + fanout
			if j > len(level) {
				j = len(level)
			}
			n := &node{children: level[i:j:j]}
			n.mbr = geom.EmptyMBR()
			for _, c := range n.children {
				n.mbr = n.mbr.Union(c.mbr)
			}
			next = append(next, n)
		}
		level = next
		t.Nodes += len(level)
		t.Height++
	}
	t.root = level[0]
	return t
}

// Index bulk-loads the tree the pipeline joins over one polygon set: entry i
// is polys[i]'s MBR under ID i. Build is deterministic in its entries, so a
// tree kept with the set joins and searches in exactly the order one rebuilt
// from the set would.
func Index(polys []*geom.Polygon) *Tree {
	entries := make([]Entry, len(polys))
	for i, p := range polys {
		entries[i] = Entry{MBR: p.MBR(), ID: int32(i)}
	}
	return Build(entries, Options{})
}

// Bytes returns the memory the tree holds: its entries, its nodes and the
// level slices that point at them.
func (t *Tree) Bytes() int64 {
	return int64(unsafe.Sizeof(*t)) + int64(t.size)*int64(unsafe.Sizeof(Entry{})) +
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

// SearchStats counts the node and entry tests performed by queries; the
// SDBMS profiler charges index-search time from these.
type SearchStats struct {
	NodesVisited  int
	EntriesTested int
}

// Search appends to dst the IDs of all entries whose MBR intersects the
// query window, returning the extended slice and the traversal statistics.
func (t *Tree) Search(window geom.MBR, dst []int32) ([]int32, SearchStats) {
	var st SearchStats
	if t.root == nil {
		return dst, st
	}
	dst = searchNode(t.root, window, dst, &st)
	return dst, st
}

func searchNode(n *node, window geom.MBR, dst []int32, st *SearchStats) []int32 {
	st.NodesVisited++
	if n.entries != nil {
		for _, e := range n.entries {
			st.EntriesTested++
			if e.MBR.Intersects(window) {
				dst = append(dst, e.ID)
			}
		}
		return dst
	}
	for _, c := range n.children {
		if c.mbr.Intersects(window) {
			dst = searchNode(c, window, dst, st)
		}
	}
	return dst
}

// Pair is a candidate polygon pair produced by the spatial join: indices of
// entries from the two joined trees whose MBRs intersect.
type Pair struct {
	A, B int32
}

// Join performs a pairwise MBR spatial join between two trees, appending all
// (a.ID, b.ID) pairs with intersecting MBRs to dst. This implements the
// filter stage of the pipeline (paper §4.1, stage 3).
func Join(a, b *Tree, dst []Pair) ([]Pair, SearchStats) {
	var st SearchStats
	if a.root == nil || b.root == nil {
		return dst, st
	}
	dst = joinNodes(a.root, b.root, dst, &st)
	return dst, st
}

func joinNodes(x, y *node, dst []Pair, st *SearchStats) []Pair {
	if !x.mbr.Intersects(y.mbr) {
		return dst
	}
	st.NodesVisited++
	switch {
	case x.entries != nil && y.entries != nil:
		// Every entry of x lies inside x's MBR, so only y's entries that meet
		// it can meet any of them. Kept in order, they pair up as a scan of
		// all of y would.
		var buf [DefaultFanout]Entry
		near := buf[:0]
		for _, eb := range y.entries {
			st.EntriesTested++
			if eb.MBR.Intersects(x.mbr) {
				near = append(near, eb)
			}
		}
		if len(near) == 0 {
			return dst
		}
		for _, ea := range x.entries {
			if !ea.MBR.Intersects(y.mbr) {
				continue
			}
			for _, eb := range near {
				st.EntriesTested++
				if ea.MBR.Intersects(eb.MBR) {
					dst = append(dst, Pair{A: ea.ID, B: eb.ID})
				}
			}
		}
	case x.entries != nil: // descend y
		for _, c := range y.children {
			dst = joinNodes(x, c, dst, st)
		}
	case y.entries != nil: // descend x
		for _, c := range x.children {
			dst = joinNodes(c, y, dst, st)
		}
	default:
		for _, cx := range x.children {
			for _, cy := range y.children {
				dst = joinNodes(cx, cy, dst, st)
			}
		}
	}
	return dst
}
