package tilepass

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/pathology"
	"repro/internal/rtree"
)

func smallTasks(tiles int) []PolyTask {
	spec := pathology.Corpus()[0]
	spec.Tiles = tiles
	d := pathology.Generate(spec)
	tasks := make([]PolyTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		tasks[i] = PolyTask{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	return tasks
}

// permute calls f with every ordering of xs (Heap's algorithm), reusing xs.
func permute(xs []TileResult, f func([]TileResult)) {
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			f(xs)
			return
		}
		for i := 0; i < k-1; i++ {
			gen(k - 1)
			if k%2 == 0 {
				xs[i], xs[k-1] = xs[k-1], xs[i]
			} else {
				xs[0], xs[k-1] = xs[k-1], xs[0]
			}
		}
		gen(k - 1)
	}
	gen(len(xs))
}

// TestFoldOrderIndependent: a job's tiles return in whatever order its
// workers finish them, on whichever executor took each; every order folds to
// the same bits.
func TestFoldOrderIndependent(t *testing.T) {
	tasks := smallTasks(5)
	cpu, gpuPass := TilePass{}, TilePass{Device: gpu.NewDevice(gpu.GTX580())}
	parts := make([]TileResult, len(tasks))
	for i, task := range tasks {
		pass := &cpu
		if i%2 == 1 {
			pass = &gpuPass
		}
		r, err := pass.Run(task)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = r
	}
	want := Fold(parts)
	if want.Intersecting == 0 || len(want.TileRatios) != len(tasks) {
		t.Fatalf("fold of %d tiles: %d intersecting, %d tile ratios", len(tasks), want.Intersecting, len(want.TileRatios))
	}
	orders := 0
	permute(append([]TileResult(nil), parts...), func(order []TileResult) {
		orders++
		got := Fold(order)
		if math.Float64bits(got.Similarity) != math.Float64bits(want.Similarity) ||
			math.Float64bits(got.RatioSum) != math.Float64bits(want.RatioSum) ||
			!reflect.DeepEqual(got.TileRatios, want.TileRatios) {
			t.Fatalf("order %d folds to (%v, %v, %v), want (%v, %v, %v)", orders,
				got.Similarity, got.RatioSum, got.TileRatios, want.Similarity, want.RatioSum, want.TileRatios)
		}
	})
	if orders != 120 {
		t.Fatalf("folded %d orders, want 5! = 120", orders)
	}
}

// TestTilePassRejectsMalformedTasks: a nil polygon, or a tree that does not
// index exactly its set, is an error naming the tile and the set.
func TestTilePassRejectsMalformedTasks(t *testing.T) {
	good := smallTasks(1)[0]
	good.TreeA, good.TreeB = rtree.Index(good.A), rtree.Index(good.B)
	var pass TilePass
	if _, err := pass.Run(good); err != nil {
		t.Fatal(err)
	}
	holed := func(polys []*geom.Polygon) []*geom.Polygon { return append(append([]*geom.Polygon{}, polys...), nil) }
	for _, c := range []struct {
		name string
		bad  func(*PolyTask)
		want string
	}{
		{"nil in A", func(t *PolyTask) { t.A, t.TreeA = holed(t.A), nil }, "set A polygon"},
		{"nil in B", func(t *PolyTask) { t.B, t.TreeB = holed(t.B), nil }, "set B polygon"},
		{"nil in B, no trees", func(t *PolyTask) { t.B, t.TreeB = holed(t.B), nil; t.TreeA = nil }, "set B polygon"},
		{"short A tree", func(t *PolyTask) { t.TreeA = rtree.Index(t.A[1:]) }, "set A tree indexes"},
		{"empty B tree", func(t *PolyTask) { t.TreeB = rtree.Index(nil) }, "set B tree indexes 0 polygons"},
	} {
		task := good
		c.bad(&task)
		if _, err := pass.Run(task); err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), good.Image) {
			t.Errorf("%s: Run = %v, want an error naming %s and %q", c.name, err, good.Image, c.want)
		}
	}
	if _, err := pass.Run(good); err != nil {
		t.Errorf("a pass that refused malformed tiles then fails a good one: %v", err)
	}
}
