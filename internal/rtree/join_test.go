package rtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/pathology"
)

// joinReference is Join with the leaf pairs joined by a nested loop: the
// order oracle for the sweep. Every candidate pair, and every pair's place
// in the output, must come out of Join as it comes out of here.
func joinReference(a, b *Tree) ([]Pair, SearchStats) {
	var st SearchStats
	if a.root == nil || b.root == nil {
		return nil, st
	}
	return joinNodesReference(a.root, b.root, nil, &st), st
}

func joinNodesReference(x, y *node, dst []Pair, st *SearchStats) []Pair {
	if !x.mbr.Intersects(y.mbr) {
		return dst
	}
	st.NodesVisited++
	switch {
	case x.entries != nil && y.entries != nil:
		var buf [MaxFanout]Entry
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
	case x.entries != nil:
		for _, c := range y.children {
			dst = joinNodesReference(x, c, dst, st)
		}
	case y.entries != nil:
		for _, c := range x.children {
			dst = joinNodesReference(c, y, dst, st)
		}
	default:
		for _, cx := range x.children {
			for _, cy := range y.children {
				dst = joinNodesReference(cx, cy, dst, st)
			}
		}
	}
	return dst
}

// checkJoin builds a tree over each side and fails unless Join returns
// joinReference's pairs in joinReference's order, visits the same nodes and
// tests no more entries.
func checkJoin(t *testing.T, name string, ea, eb []Entry, opts Options) {
	t.Helper()
	ta, tb := Build(ea, opts), Build(eb, opts)
	got, st := Join(ta, tb, nil)
	want, wantSt := joinReference(ta, tb)
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: Join gave %d pairs, the nested loop %d; they first differ at pair %d", name, len(got), len(want), i)
	}
	if st.NodesVisited != wantSt.NodesVisited || st.EntriesTested > wantSt.EntriesTested {
		t.Fatalf("%s: Join %+v, nested loop %+v", name, st, wantSt)
	}
}

// TestJoinMatchesReference holds the sweep to the nested loop's pairs and
// order on the shapes the join meets and the ones that trip a sweep: the
// benchmark corpus' tiles, random sets of every height on both sides, a
// narrower fanout, duplicate MBRs, MBRs that only touch, full-width stripes.
func TestJoinMatchesReference(t *testing.T) {
	spec := pathology.Representative()
	spec.Tiles = 32
	for i, tp := range pathology.Generate(spec).Pairs {
		checkJoin(t, fmt.Sprintf("corpus tile %d", i), indexEntries(tp.A), indexEntries(tp.B), Options{})
	}

	rng := rand.New(rand.NewSource(47))
	// 0 to 16^4 entries give heights 0 to 4; each size meets every other.
	sizes := []int{0, 1, 15, 16, 17, 255, 256, 257, 1000, 4097, 5000}
	for _, na := range sizes {
		for _, nb := range sizes {
			space := int32(20 + rng.Intn(2000))
			checkJoin(t, fmt.Sprintf("random %d x %d in %d", na, nb, space),
				randEntries(rng, na, space), randEntries(rng, nb, space), Options{})
		}
	}
	checkJoin(t, "fanout 10", randEntries(rng, 1000, 300), randEntries(rng, 700, 300), Options{Fanout: 10})

	dup := func(n int) []Entry {
		es := randEntries(rng, n, 40)
		for i := range es {
			es[i].MBR = es[i/5*5].MBR
		}
		return es
	}
	checkJoin(t, "duplicate MBRs", dup(600), dup(600), Options{})

	// A grid of 4x4 cells a side, B's grid shifted by a whole cell: every
	// MBR of B shares edges and corners with MBRs of A and overlaps none.
	grid := func(off int32) []Entry {
		var es []Entry
		for y := int32(0); y < 30; y++ {
			for x := int32(0); x < 30; x++ {
				x0, y0 := 4*x+off, 4*y+off
				es = append(es, Entry{MBR: geom.MBR{MinX: x0, MinY: y0, MaxX: x0 + 4, MaxY: y0 + 4}, ID: int32(len(es))})
			}
		}
		return es
	}
	ta, tb := Build(grid(0), Options{}), Build(grid(4), Options{})
	if pairs, _ := Join(ta, tb, nil); len(pairs) != 29*29 {
		t.Fatalf("touching grids: %d pairs, want only the %d cells that coincide", len(pairs), 29*29)
	}
	checkJoin(t, "touching cells", grid(0), grid(4), Options{})
	checkJoin(t, "touching neighbours", grid(0), grid(0), Options{Fanout: 7})

	stripes := func(n int, dy int32) []Entry {
		es := make([]Entry, n)
		for i := range es {
			y := int32(2*i) + dy
			es[i] = Entry{MBR: geom.MBR{MinX: 0, MinY: y, MaxX: 4096, MaxY: y + 2}, ID: int32(i)}
		}
		return es
	}
	checkJoin(t, "stripes", stripes(5000, 0), stripes(5000, 1), Options{})
}

// TestFanoutClamped: a fanout wider than the leaf join's hit mask is clamped
// to MaxFanout, one of 1 (whose levels would never shrink to a root) to 2,
// and the join over such trees is still the nested loop's.
func TestFanoutClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	if tr := Build(randEntries(rng, 8, 40), Options{Fanout: 1}); tr.fanout != 2 || tr.Height != 3 || tr.Nodes != 7 {
		t.Fatalf("Fanout 1: fanout %d, height %d, %d nodes; want 2, 3, 7", tr.fanout, tr.Height, tr.Nodes)
	}
	checkJoin(t, "fanout 1", randEntries(rng, 300, 100), randEntries(rng, 200, 100), Options{Fanout: 1})
	for _, fanout := range []int{MaxFanout, MaxFanout + 1, 1000} {
		tr := Build(randEntries(rng, 1000, 400), Options{Fanout: fanout})
		// 1000 entries in 16 leaves of at most 64, under one root.
		if tr.fanout != MaxFanout || tr.Height != 2 || tr.Nodes != 17 {
			t.Fatalf("Fanout %d: fanout %d, height %d, %d nodes; want %d, 2, 17",
				fanout, tr.fanout, tr.Height, tr.Nodes, MaxFanout)
		}
		checkJoin(t, fmt.Sprintf("fanout %d", fanout), randEntries(rng, 1000, 400), randEntries(rng, 900, 400), Options{Fanout: fanout})
	}
}

// FuzzJoin: on any two entry sets and fanout, Join gives the nested loop's
// pairs in its order. Each five bytes make one entry: side, x, y, width,
// height; a width or height may be 0.
func FuzzJoin(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 1, 3, 3, 1, 2, 2, 3, 3})
	f.Add(uint8(3), []byte{0, 0, 0, 4, 4, 1, 4, 0, 4, 4, 0, 4, 4, 4, 4, 1, 0, 4, 4, 4})
	seed := make([]byte, 5*400)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(uint8(0), seed)
	f.Add(uint8(90), seed)
	f.Fuzz(func(t *testing.T, fanout uint8, data []byte) {
		var ea, eb []Entry
		for ; len(data) >= 5; data = data[5:] {
			x, y := int32(data[1]), int32(data[2])
			e := Entry{MBR: geom.MBR{MinX: x, MinY: y, MaxX: x + int32(data[3]%32), MaxY: y + int32(data[4]%32)}}
			if data[0]&1 == 0 {
				e.ID = int32(len(ea))
				ea = append(ea, e)
			} else {
				e.ID = int32(len(eb))
				eb = append(eb, e)
			}
		}
		checkJoin(t, "fuzz", ea, eb, Options{Fanout: int(fanout)})
	})
}

func indexEntries(polys []*geom.Polygon) []Entry {
	es := make([]Entry, len(polys))
	for i, p := range polys {
		es[i] = Entry{MBR: p.MBR(), ID: int32(i)}
	}
	return es
}

// BenchmarkJoin joins the trees a store keeps with each tile's two sets, one
// pass over every tile of a dataset: the benchmark corpus' 32-tile shape and
// the corpus' largest dataset at 10x its tiles (440). join_us_per_tile is
// the filter stage's time a tile; tests_per_pair the entries it tests per
// candidate pair it finds.
func BenchmarkJoin(b *testing.B) {
	small := pathology.Representative()
	small.Tiles = 32
	large := pathology.Corpus()[17]
	large.Tiles *= 10
	for _, spec := range []pathology.DatasetSpec{small, large} {
		b.Run(fmt.Sprintf("tiles=%d", spec.Tiles), func(b *testing.B) {
			var trees [][2]*Tree
			for _, tp := range pathology.Generate(spec).Pairs {
				trees = append(trees, [2]*Tree{Index(tp.A), Index(tp.B)})
			}
			var dst []Pair
			var pairs, tested int
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, tt := range trees {
					var st SearchStats
					dst, st = Join(tt[0], tt[1], dst[:0])
					pairs += len(dst)
					tested += st.EntriesTested
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(trees)), "join_us_per_tile")
			b.ReportMetric(float64(tested)/float64(pairs), "tests_per_pair")
		})
	}
}
