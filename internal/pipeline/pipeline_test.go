package pipeline

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/clip"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/pathology"
	"repro/internal/rtree"
	"repro/internal/sdbms"
)

func smallDataset() *pathology.Dataset {
	spec := pathology.Corpus()[0]
	spec.Tiles = 3
	return pathology.Generate(spec)
}

// oracleSimilarity computes J' for a dataset directly with the exact
// overlay, tile by tile.
func oracleSimilarity(d *pathology.Dataset) (float64, int) {
	var sum float64
	var hits int
	for _, tp := range d.Pairs {
		ea := make([]rtree.Entry, len(tp.A))
		for i, p := range tp.A {
			ea[i] = rtree.Entry{MBR: p.MBR(), ID: int32(i)}
		}
		eb := make([]rtree.Entry, len(tp.B))
		for i, p := range tp.B {
			eb[i] = rtree.Entry{MBR: p.MBR(), ID: int32(i)}
		}
		pairs, _ := rtree.Join(rtree.Build(ea, rtree.Options{}), rtree.Build(eb, rtree.Options{}), nil)
		for _, pr := range pairs {
			if ratio, ok := clip.JaccardRatio(tp.A[pr.A], tp.B[pr.B]); ok {
				sum += ratio
				hits++
			}
		}
	}
	if hits == 0 {
		return 0, 0
	}
	return sum / float64(hits), hits
}

func TestPipelineMatchesOracleGPU(t *testing.T) {
	d := smallDataset()
	wantSim, wantHits := oracleSimilarity(d)
	tasks := EncodeDataset(d)
	dev := gpu.NewDevice(gpu.GTX580())
	res, err := Run(tasks, Config{Devices: []*gpu.Device{dev}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intersecting != wantHits {
		t.Fatalf("intersecting = %d, want %d", res.Intersecting, wantHits)
	}
	if math.Abs(res.Similarity-wantSim) > 1e-9 {
		t.Fatalf("similarity = %v, want %v", res.Similarity, wantSim)
	}
	if res.Stats.PairsOnGPU == 0 {
		t.Fatal("no pairs processed on GPU")
	}
	if res.Stats.KernelLaunches == 0 || res.Stats.DeviceSeconds <= 0 {
		t.Fatal("device accounting missing")
	}
	if res.Stats.TilesProcessed != len(tasks) {
		t.Fatalf("tiles = %d", res.Stats.TilesProcessed)
	}
}

func TestPipelineMatchesOracleCPUOnly(t *testing.T) {
	d := smallDataset()
	wantSim, wantHits := oracleSimilarity(d)
	res, err := Run(EncodeDataset(d), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intersecting != wantHits {
		t.Fatalf("intersecting = %d, want %d", res.Intersecting, wantHits)
	}
	if math.Abs(res.Similarity-wantSim) > 1e-9 {
		t.Fatalf("similarity = %v, want %v", res.Similarity, wantSim)
	}
	if res.Stats.PairsOnCPU == 0 || res.Stats.PairsOnGPU != 0 {
		t.Fatalf("pair placement wrong: cpu=%d gpu=%d", res.Stats.PairsOnCPU, res.Stats.PairsOnGPU)
	}
}

func TestPipelineWithMigrationStillExact(t *testing.T) {
	d := smallDataset()
	wantSim, wantHits := oracleSimilarity(d)
	dev := gpu.NewDevice(gpu.GTX580())
	// Tiny buffers force full/empty transitions so both migrators fire.
	res, err := Run(EncodeDataset(d), Config{
		Devices:    []*gpu.Device{dev},
		Migration:  true,
		BufferCap:  1,
		BatchPairs: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intersecting != wantHits {
		t.Fatalf("intersecting = %d, want %d", res.Intersecting, wantHits)
	}
	if math.Abs(res.Similarity-wantSim) > 1e-9 {
		t.Fatalf("similarity = %v, want %v", res.Similarity, wantSim)
	}
	if res.Stats.PairsOnGPU+res.Stats.PairsOnCPU != res.Stats.PairsFiltered {
		t.Fatal("pair accounting inconsistent")
	}
}

func TestPipelineMatchesSDBMS(t *testing.T) {
	// End-to-end cross-check: the pipeline and the SDBMS must compute the
	// same similarity for the same dataset.
	d := smallDataset()
	a, b := d.GlobalPolygons()
	db := sdbms.NewDB()
	if _, err := db.CreateTable("a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("b", b); err != nil {
		t.Fatal(err)
	}
	want, err := db.CrossCompare("a", "b", sdbms.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpu.NewDevice(gpu.GTX580())
	got, err := Run(EncodeDataset(d), Config{Devices: []*gpu.Device{dev}})
	if err != nil {
		t.Fatal(err)
	}
	// Tile-local vs global comparison can differ if polygons crossed tile
	// borders, but the generator keeps objects strictly within tiles, so
	// the match must be exact.
	if got.Intersecting != want.IntersectingPairs {
		t.Fatalf("pipeline found %d intersecting pairs, SDBMS %d", got.Intersecting, want.IntersectingPairs)
	}
	if math.Abs(got.Similarity-want.Similarity) > 1e-9 {
		t.Fatalf("pipeline J'=%v, SDBMS J'=%v", got.Similarity, want.Similarity)
	}
}

func TestPipelineEmptyInput(t *testing.T) {
	res, err := Run(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Similarity != 0 || res.Candidates != 0 {
		t.Fatalf("empty run produced %+v", res)
	}
}

func TestPipelineParseErrorPropagates(t *testing.T) {
	tasks := []FileTask{{Image: "x", Tile: 0, RawA: []byte("garbage\n"), RawB: []byte("more\n")}}
	_, err := Run(tasks, Config{})
	if err == nil {
		t.Fatal("bad input did not error")
	}
}

func TestPipelineConcurrentRunsIndependent(t *testing.T) {
	d := smallDataset()
	tasks := EncodeDataset(d)
	want, _ := Run(tasks, Config{Devices: []*gpu.Device{gpu.NewDevice(gpu.GTX580())}})
	var wg sync.WaitGroup
	results := make([]Result, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(tasks, Config{Devices: []*gpu.Device{gpu.NewDevice(gpu.GTX580())}})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res.Similarity != want.Similarity || res.Intersecting != want.Intersecting {
			t.Fatalf("run %d diverged: %v vs %v", i, res.Similarity, want.Similarity)
		}
	}
}

// TestRunParsedCarriedTrees: a task that carries its sets' trees costs the
// builder stage nothing and reports, tile by tile, the bits of the same task
// without them, of a task carrying one tree only, and of the text path.
func TestRunParsedCarriedTrees(t *testing.T) {
	d := smallDataset()
	raw := make([]PolyTask, len(d.Pairs))
	kept := make([]PolyTask, len(d.Pairs))
	half := make([]PolyTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		raw[i] = PolyTask{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
		kept[i], half[i] = raw[i], raw[i]
		kept[i].TreeA, kept[i].TreeB = rtree.Index(tp.A), rtree.Index(tp.B)
		half[i].TreeB = kept[i].TreeB
	}
	want, err := Run(EncodeDataset(d), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Candidates == 0 || want.Stats.BuilderBusy == 0 {
		t.Fatalf("text run: %d candidates, builder busy %v", want.Candidates, want.Stats.BuilderBusy)
	}
	for _, c := range []struct {
		name   string
		tasks  []PolyTask
		builds bool
	}{{"no trees", raw, true}, {"both trees", kept, false}, {"set B's tree only", half, true}} {
		for _, cfg := range []Config{{}, {Devices: []*gpu.Device{gpu.NewDevice(gpu.GTX580())}, CPUAggregators: 1}} {
			got, err := RunParsed(c.tasks, cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got.Candidates != want.Candidates || got.Similarity != want.Similarity ||
				!reflect.DeepEqual(got.TileRatios, want.TileRatios) {
				t.Fatalf("%s: (%v, %d candidates, %v) differs from the text path's (%v, %d, %v)", c.name,
					got.Similarity, got.Candidates, got.TileRatios, want.Similarity, want.Candidates, want.TileRatios)
			}
			if built := got.Stats.BuilderBusy > 0; built != c.builds {
				t.Fatalf("%s: builder busy %v, want building: %v", c.name, got.Stats.BuilderBusy, c.builds)
			}
		}
	}
}

// TestRunParsedRejectsMalformedTasks: a nil polygon, or a tree that does not
// index exactly its set, is an error before any stage starts.
func TestRunParsedRejectsMalformedTasks(t *testing.T) {
	tp := smallDataset().Pairs[0]
	good := PolyTask{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B, TreeA: rtree.Index(tp.A), TreeB: rtree.Index(tp.B)}
	if _, err := RunParsed([]PolyTask{good}, Config{}); err != nil {
		t.Fatal(err)
	}
	holed := append(append([]*geom.Polygon{}, tp.B...), nil)
	for want, bad := range map[string]func(*PolyTask){
		"set B polygon":                 func(t *PolyTask) { t.B, t.TreeB = holed, nil },
		"set A tree indexes":            func(t *PolyTask) { t.TreeA = rtree.Index(tp.A[1:]) },
		"set B tree indexes 0 polygons": func(t *PolyTask) { t.TreeB = rtree.Index(nil) },
	} {
		task := good
		bad(&task)
		if _, err := RunParsed([]PolyTask{good, task}, Config{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RunParsed = %v, want an error naming %q", err, want)
		}
	}
}

func TestBufferBasics(t *testing.T) {
	b := newBuffer[int](2)
	b.put(1)
	b.put(2)
	if !b.isFull() {
		t.Fatal("buffer should be full")
	}
	if v, ok := b.get(); !ok || v != 1 {
		t.Fatalf("got %v,%v", v, ok)
	}
	if v, ok := b.tryGet(); !ok || v != 2 {
		t.Fatalf("tryGet %v,%v", v, ok)
	}
	if _, ok := b.tryGet(); ok {
		t.Fatal("tryGet on empty")
	}
	b.close()
	if _, ok := b.get(); ok {
		t.Fatal("get after close+drain")
	}
	if !b.isDrained() {
		t.Fatal("not drained")
	}
}

func TestBufferStealMin(t *testing.T) {
	b := newBuffer[int](8)
	for _, v := range []int{5, 3, 9, 1, 7} {
		b.put(v)
	}
	v, ok := b.stealMin(func(x int) int { return x })
	if !ok || v != 1 {
		t.Fatalf("stealMin = %v,%v", v, ok)
	}
	if b.len() != 4 {
		t.Fatalf("len = %d", b.len())
	}
	// Remaining order preserved for FIFO gets.
	if v, _ := b.get(); v != 5 {
		t.Fatalf("head = %v", v)
	}
}

func TestBufferBlockingPutGet(t *testing.T) {
	b := newBuffer[int](1)
	b.put(1)
	done := make(chan struct{})
	go func() {
		b.put(2) // blocks until a get
		close(done)
	}()
	if v, _ := b.get(); v != 1 {
		t.Fatal("wrong head")
	}
	<-done
	if v, _ := b.get(); v != 2 {
		t.Fatal("second item lost")
	}
}
