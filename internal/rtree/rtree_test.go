package rtree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

func randEntries(rng *rand.Rand, n int, space int32) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		x := rng.Int31n(space)
		y := rng.Int31n(space)
		w := 1 + rng.Int31n(16)
		h := 1 + rng.Int31n(16)
		entries[i] = Entry{MBR: geom.MBR{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: int32(i)}
	}
	return entries
}

// windowJoin returns the IDs of tr's entries whose MBRs intersect window, in
// join order: tr joined with a one-entry tree.
func windowJoin(tr *Tree, window geom.MBR) []int32 {
	pairs, _ := Join(tr, Build([]Entry{{MBR: window}}, Options{}), nil)
	ids := make([]int32, 0, len(pairs))
	for _, pr := range pairs {
		ids = append(ids, pr.A)
	}
	return ids
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil, Options{})
	if tr.Len() != 0 {
		t.Fatal("empty tree has entries")
	}
	if ids := windowJoin(tr, geom.MBR{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}); len(ids) != 0 {
		t.Fatal("empty tree returned results")
	}
	other := Build(randEntries(rand.New(rand.NewSource(1)), 10, 100), Options{})
	pairs, _ := Join(tr, other, nil)
	if len(pairs) != 0 {
		t.Fatal("join with empty tree returned pairs")
	}
}

func TestWindowJoinMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := randEntries(rng, 500, 400)
	// Build sorts entries in place; keep a copy for the oracle.
	oracle := make([]Entry, len(entries))
	copy(oracle, entries)
	tr := Build(entries, Options{})
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for trial := 0; trial < 50; trial++ {
		x := rng.Int31n(400)
		y := rng.Int31n(400)
		window := geom.MBR{MinX: x, MinY: y, MaxX: x + 1 + rng.Int31n(60), MaxY: y + 1 + rng.Int31n(60)}
		got := windowJoin(tr, window)
		var want []int32
		for _, e := range oracle {
			if e.MBR.Intersects(window) {
				want = append(want, e.ID)
			}
		}
		sortIDs(got)
		sortIDs(want)
		if !equalIDs(got, want) {
			t.Fatalf("window %v: got %v, want %v", window, got, want)
		}
	}
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ea := randEntries(rng, 300, 300)
	eb := randEntries(rng, 280, 300)
	oa := make([]Entry, len(ea))
	ob := make([]Entry, len(eb))
	copy(oa, ea)
	copy(ob, eb)
	ta := Build(ea, Options{})
	tb := Build(eb, Options{})
	got, st := Join(ta, tb, nil)
	var want []Pair
	for _, a := range oa {
		for _, b := range ob {
			if a.MBR.Intersects(b.MBR) {
				want = append(want, Pair{A: a.ID, B: b.ID})
			}
		}
	}
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("join size %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}
	// The join must prune: far fewer entry tests than the full cross
	// product.
	if st.EntriesTested >= len(oa)*len(ob) {
		t.Fatalf("join did not prune: %d tests", st.EntriesTested)
	}
}

// TestIndexIsBuildOverMBRs: Index is Build over the set's MBRs under slice
// indexes, twice over the same set gives the same join sequence, and Bytes
// covers at least the entries and nodes the tree holds.
func TestIndexIsBuildOverMBRs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sets := [2][]*geom.Polygon{}
	var built [2]*Tree
	for s := range sets {
		entries := randEntries(rng, 200, 300)
		for _, e := range entries {
			sets[s] = append(sets[s], geom.Rect(e.MBR.MinX, e.MBR.MinY, e.MBR.MaxX, e.MBR.MaxY))
		}
		built[s] = Build(entries, Options{})
	}
	want, wantStats := Join(built[0], built[1], nil)
	for pass := 0; pass < 2; pass++ {
		ta, tb := Index(sets[0]), Index(sets[1])
		got, st := Join(ta, tb, nil)
		if len(got) == 0 || !reflect.DeepEqual(got, want) || st != wantStats {
			t.Fatalf("pass %d: Index joins %d pairs (%+v), Build over the same MBRs %d (%+v), or in another order",
				pass, len(got), st, len(want), wantStats)
		}
		if min := int64(ta.Len())*int64(unsafe.Sizeof(Entry{})) + int64(ta.Nodes)*int64(unsafe.Sizeof(node{})); ta.Bytes() < min {
			t.Fatalf("Bytes() = %d for %d entries in %d nodes, which alone take %d", ta.Bytes(), ta.Len(), ta.Nodes, min)
		}
	}
	if empty := Index(nil); empty.Len() != 0 || empty.Bytes() <= 0 {
		t.Fatalf("empty index: %d entries, %d bytes", empty.Len(), empty.Bytes())
	}
}

// TestJoinCostOnStripes is the first row of the cost-is-a-function-of-bytes
// table: N full-width two-pixel stripes a side, set B one pixel lower, so every
// MBR overlaps every other in x and stripe i meets only stripes i-1 and i of
// the other side. The Hilbert order keeps y-neighbours in one leaf, so the join
// tests a bounded number of entries per stripe — where a sweep over x-sorted
// MBRs tests all N*N. At 20k stripes the doubled centres pass the curve's
// 65,536 cells and the last keys collapse; the bound still holds.
func TestJoinCostOnStripes(t *testing.T) {
	const width = 4096
	for _, n := range []int{1000, 5000, 20000} {
		ea, eb := make([]Entry, n), make([]Entry, n)
		for i := range ea {
			y := int32(2 * i)
			ea[i] = Entry{MBR: geom.MBR{MinX: 0, MinY: y, MaxX: width, MaxY: y + 2}, ID: int32(i)}
			eb[i] = Entry{MBR: geom.MBR{MinX: 0, MinY: y + 1, MaxX: width, MaxY: y + 3}, ID: int32(i)}
		}
		pairs, st := Join(Build(ea, Options{}), Build(eb, Options{}), nil)
		if len(pairs) != 2*n-1 {
			t.Fatalf("N=%d: %d candidates, want %d", n, len(pairs), 2*n-1)
		}
		for _, pr := range pairs {
			if pr.A != pr.B && pr.A != pr.B+1 {
				t.Fatalf("N=%d: stripe %d of A paired with stripe %d of B", n, pr.A, pr.B)
			}
		}
		t.Logf("N=%d: %d entries tested (%.1f per stripe), %d nodes visited", n, st.EntriesTested, float64(st.EntriesTested)/float64(n), st.NodesVisited)
		if st.EntriesTested > 64*n {
			t.Fatalf("N=%d: join tested %d entries, want at most %d", n, st.EntriesTested, 64*n)
		}
	}
}

func TestTreeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	entries := randEntries(rng, 1000, 1000)
	tr := Build(entries, Options{Fanout: 10})
	// 1000 leaves entries / 10 = 100 leaves, /10 = 10 nodes, /10 = 1 root:
	// height 3, 111 nodes.
	if tr.Height != 3 {
		t.Fatalf("height = %d, want 3", tr.Height)
	}
	if tr.Nodes != 111 {
		t.Fatalf("nodes = %d, want 111", tr.Nodes)
	}
	if tr.RootMBR().IsEmpty() {
		t.Fatal("root MBR empty")
	}
}

func TestSingleEntry(t *testing.T) {
	tr := Build([]Entry{{MBR: geom.MBR{MinX: 5, MinY: 5, MaxX: 7, MaxY: 7}, ID: 42}}, Options{})
	if got := windowJoin(tr, geom.MBR{MinX: 6, MinY: 6, MaxX: 8, MaxY: 8}); len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
	if got := windowJoin(tr, geom.MBR{MinX: 8, MinY: 8, MaxX: 9, MaxY: 9}); len(got) != 0 {
		t.Fatalf("miss returned %v", got)
	}
}

func sortIDs(ids []int32) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }
func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}
