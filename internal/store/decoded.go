package store

// The decoded-tile cache. A cold job spends most of its time turning WKB
// back into validated polygons, and a K-way matrix reads every dataset K−1
// times within seconds, so the store keeps recently decoded sets in the form
// a job consumes: the validated polygons, their band tables and row masks
// (what the aggregator counts with) and the set's Hilbert R-tree (what the
// filter joins) — each a pure function of the set's bytes, built once at
// decode instead of once per job. An entry is keyed by (tile digest, set): the
// digest is the content, so an entry can never be stale, only unreferenced,
// and a cross read decodes and keeps only the side it compares, joining one
// dataset's set-A tree against another's set-B tree. What is kept is bounded in bytes, not
// entries, and only ever holds the decode of bytes whose digest verified.

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// decodedCacheBytes bounds the decoded sets one Store keeps. A decoded set
// with its band tables, row masks and tree takes about 1.96x its segment bytes
// (4.51 MB for a 32-tile benchmark dataset of 2.30 MB: 0.76 MB of it tables,
// 0.42 MB masks, 0.09 MB trees), so this holds the benchmark's six-way pool
// (27 MB decoded at most) with room to spare. A peer import puts every set of
// the dataset it pulled here, so the job the pull was made for reads no
// segment bytes; a dataset larger than the bound keeps only its last sets,
// and the import holds no more than those while it verifies.
// A cyclic scan over more than the bound evicts every set before its next use
// and gets no hits at all.
const decodedCacheBytes = 32 << 20

type decodedKey struct {
	digest [sha256.Size]byte
	set    byte // 'A' or 'B'
}

// decodedSet is one polygon set as decodeSet built it: the polygons live in
// one geom.Slab, tree is rtree.Index(polys), and bytes is that slab (band
// tables and row masks included), the tree, the pointer slice and the cache's
// own entry — everything keeping the set costs except its map slot.
type decodedSet struct {
	key   decodedKey
	polys []*geom.Polygon
	tree  *rtree.Tree
	bytes int64
}

func newDecodedSet(key decodedKey, slab *geom.Slab, polys []*geom.Polygon, tree *rtree.Tree) *decodedSet {
	set := &decodedSet{key: key, polys: polys, tree: tree}
	set.bytes = slab.Bytes() + int64(cap(polys))*int64(unsafe.Sizeof(polys[0])) +
		int64(unsafe.Sizeof(*set)+unsafe.Sizeof(list.Element{})) + tree.Bytes()
	return set
}

// decodedCache is an LRU over decoded sets under one byte bound.
type decodedCache struct {
	hits, misses atomic.Int64

	mu      sync.Mutex
	max     int64
	bytes   int64
	order   *list.List // of *decodedSet, most recently used first
	entries map[decodedKey]*list.Element
}

func newDecodedCache(max int64) *decodedCache {
	return &decodedCache{max: max, order: list.New(), entries: make(map[decodedKey]*list.Element)}
}

// get returns the cached set, nil when it is not held. The polygons and the
// tree are shared with every other reader of the tile; nobody may modify them
// or the slice.
func (c *decodedCache) get(key decodedKey) *decodedSet {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return el.Value.(*decodedSet)
}

// put keeps set, evicting from the cold end until the bound holds again. The
// first decode of a key wins; a set larger than the whole bound is not kept.
func (c *decodedCache) put(set *decodedSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[set.key]; ok || set.bytes > c.max {
		return
	}
	c.entries[set.key] = c.order.PushFront(set)
	c.bytes += set.bytes
	for c.bytes > c.max {
		c.remove(c.order.Back())
	}
}

// handOver holds what an import hands the cache: the sets that put, called
// in tile order on a cache with room for max bytes, keeps of the copy — the
// longest tile-order suffix whose bytes fit, less any set larger than max.
// Tiles verify in any order. A set goes as soon as the sets verified at or
// after it leave it no room, since sets still to come only add to that sum,
// so an import holds at most max bytes of sets, not its whole copy decoded.
// A set whose key the cache already holds counts as if put kept it, so then
// the hand-over may keep fewer of the copy's sets than put would.
type handOver struct {
	mu    sync.Mutex
	max   int64
	sets  []*decodedSet // tile i's sets at 2i and 2i+1; nil until added, or once dropped
	bytes []int64       // the bytes of each added set no larger than max
}

func newHandOver(max int64, tiles int) *handOver {
	return &handOver{max: max, sets: make([]*decodedSet, 2*tiles), bytes: make([]int64, 2*tiles)}
}

// add holds tile i's verified sets and drops every held set that the sets
// verified at or after it have pushed out of the bound.
func (h *handOver) add(i int, a, b *decodedSet) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for j, set := range [...]*decodedSet{a, b} {
		if set.bytes <= h.max {
			h.sets[2*i+j], h.bytes[2*i+j] = set, set.bytes
		}
	}
	var tail int64
	for j := len(h.sets) - 1; j >= 0; j-- {
		if tail += h.bytes[j]; tail > h.max {
			h.sets[j] = nil
		}
	}
}

// drop forgets both sets of every tile of man.
func (c *decodedCache) drop(man *Manifest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range man.Tiles {
		for _, set := range [...]byte{'A', 'B'} {
			if el, ok := c.entries[decodedKey{man.Tiles[i].sum, set}]; ok {
				c.remove(el)
			}
		}
	}
}

func (c *decodedCache) remove(el *list.Element) {
	set := c.order.Remove(el).(*decodedSet)
	delete(c.entries, set.key)
	c.bytes -= set.bytes
}

func (c *decodedCache) size() (bytes int64, sets int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, len(c.entries)
}

// keepDecoded hands the freshly decoded sets (nil ones skipped) of dataset id
// to the cache, unless the dataset has left the index: remove drops a
// dataset's entries under the same lock it unindexes it under, so a read that
// was in flight across a delete cannot leave a set behind that nothing will
// ever drop.
func (s *Store) keepDecoded(id string, sets ...*decodedSet) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.datasets[id]; !ok {
		return
	}
	for _, set := range sets {
		if set != nil {
			s.decoded.put(set)
		}
	}
}
