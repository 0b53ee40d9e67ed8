package pipeline

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/clip"
	"repro/internal/geom"
	"repro/internal/geomtest"
	"repro/internal/gpu"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pixelbox"
	"repro/internal/rtree"
	"repro/internal/sdbms"
)

// encodeDataset converts a generated dataset into pipeline input tasks
// (text-encoded tiles, as segmentation emits them).
func encodeDataset(d *pathology.Dataset) []FileTask {
	tasks := make([]FileTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		tasks[i] = FileTask{Image: tp.Image, Tile: tp.Index, RawA: parser.Encode(tp.A), RawB: parser.Encode(tp.B)}
	}
	return tasks
}

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
	tasks := encodeDataset(d)
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
	res, err := Run(encodeDataset(d), Config{})
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
	res, err := Run(encodeDataset(d), Config{
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
	got, err := Run(encodeDataset(d), Config{Devices: []*gpu.Device{dev}})
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
	tasks := encodeDataset(d)
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

// TestRunParsedCarriedTrees is RunParsed's differential table: every config
// of executors over every shape of input reports what Run reports for the
// same tiles as text — the same bits, tile by tile — with its pairs counted
// once, every executor of the pool listed whether or not it took a tile, and
// builder time exactly when a tree had to be built.
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
	inputs := []struct {
		name   string
		tasks  []PolyTask
		builds bool
	}{
		{"kept trees", kept, false},
		{"no trees", raw, true},
		{"set B's tree only", half, true},
		{"one tile", kept[:1], false},
		{"more executors than tiles", raw[:2], true},
		{"empty", nil, false},
	}
	configs := []struct {
		name string
		cfg  func() Config
	}{
		{"cpu workers 1", func() Config { return Config{CPU: pixelbox.CPUConfig{Workers: 1}} }},
		{"cpu workers 2", func() Config { return Config{CPU: pixelbox.CPUConfig{Workers: 2}} }},
		{"cpu default", func() Config { return Config{} }},
		{"gpu x1", func() Config { return Config{Devices: devices(1)} }},
		{"gpu x2", func() Config { return Config{Devices: devices(2)} }},
		{"hybrid 1 gpu + 2 cpu", func() Config { return Config{Devices: devices(1), CPUAggregators: 2} }},
	}
	for _, c := range configs {
		for _, in := range inputs {
			name := c.name + "/" + in.name
			want, err := Run(textTasks(in.tasks), c.cfg())
			if err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
			if len(in.tasks) > 0 && want.Candidates == 0 {
				t.Fatalf("%s: Run found no candidate pairs", name)
			}
			cfg := c.cfg()
			got, err := RunParsed(in.tasks, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if math.Float64bits(got.Similarity) != math.Float64bits(want.Similarity) ||
				got.Candidates != want.Candidates || got.Intersecting != want.Intersecting {
				t.Errorf("%s: (%v, %d candidates, %d intersecting), Run (%v, %d, %d)", name,
					got.Similarity, got.Candidates, got.Intersecting, want.Similarity, want.Candidates, want.Intersecting)
			}
			if !reflect.DeepEqual(got.TileRatios, want.TileRatios) {
				t.Errorf("%s: tile ratios %v, Run %v", name, got.TileRatios, want.TileRatios)
			}
			st := got.Stats
			if st.PairsOnGPU+st.PairsOnCPU != got.Candidates || st.PairsFiltered != got.Candidates {
				t.Errorf("%s: %d pairs on GPU + %d on CPU, %d filtered, %d candidates", name,
					st.PairsOnGPU, st.PairsOnCPU, st.PairsFiltered, got.Candidates)
			}
			if (len(cfg.Devices) == 0 && st.PairsOnGPU != 0) || (cfg.CPUAggregators == 0 && len(cfg.Devices) > 0 && st.PairsOnCPU != 0) {
				t.Errorf("%s: %d pairs on GPU, %d on CPU, from executors that do not exist", name, st.PairsOnGPU, st.PairsOnCPU)
			}
			if st.TilesProcessed != len(in.tasks) {
				t.Errorf("%s: %d tiles processed, want %d", name, st.TilesProcessed, len(in.tasks))
			}
			pool := buildExecutors(cfg.normalized())
			if len(st.Executors) != len(pool) {
				t.Fatalf("%s: %d executors reported, the pool has %d: %+v", name, len(st.Executors), len(pool), st.Executors)
			}
			var pairs int64
			for i, e := range st.Executors {
				if e.ID != pool[i].id || e.Kind != pool[i].kind {
					t.Errorf("%s: executor %d is %s/%s, the pool's is %s/%s", name, i, e.ID, e.Kind, pool[i].id, pool[i].kind)
				}
				pairs += e.Pairs
			}
			if pairs != int64(got.Candidates) {
				t.Errorf("%s: executors counted %d pairs, %d candidates", name, pairs, got.Candidates)
			}
			if built := st.BuilderBusy > 0; built != in.builds {
				t.Errorf("%s: builder busy %v, want building: %v", name, st.BuilderBusy, in.builds)
			}
		}
	}
}

// TestMergeMatchesUnsharded checks Merge against ground truth on
// partitioned runs.
func TestMergeMatchesUnsharded(t *testing.T) {
	spec := pathology.Representative()
	spec.Tiles = 4
	d := pathology.Generate(spec)
	tasks := make([]PolyTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		tasks[i] = PolyTask{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	whole, err := RunParsed(tasks, Config{})
	if err != nil {
		t.Fatalf("whole run: %v", err)
	}
	half1, err := RunParsed(tasks[:2], Config{})
	if err != nil {
		t.Fatalf("half1: %v", err)
	}
	half2, err := RunParsed(tasks[2:], Config{})
	if err != nil {
		t.Fatalf("half2: %v", err)
	}
	merged := Merge(half1, half2)
	if merged.Intersecting != whole.Intersecting || merged.Candidates != whole.Candidates {
		t.Errorf("merged counts (%d, %d) != whole (%d, %d)",
			merged.Intersecting, merged.Candidates, whole.Intersecting, whole.Candidates)
	}
	if math.Abs(merged.Similarity-whole.Similarity) > 1e-9 {
		t.Errorf("merged similarity %.12f != whole %.12f", merged.Similarity, whole.Similarity)
	}
}

// textTasks encodes parsed tiles as the text a Run takes.
func textTasks(tasks []PolyTask) []FileTask {
	files := make([]FileTask, len(tasks))
	for i, t := range tasks {
		files[i] = FileTask{Image: t.Image, Tile: t.Tile, RawA: parser.Encode(t.A), RawB: parser.Encode(t.B)}
	}
	return files
}

// TestDeviceCountersArePerRun: a caller that reuses its devices across runs
// gets each run's own launches and busy time, not the devices' running
// totals.
func TestDeviceCountersArePerRun(t *testing.T) {
	d := smallDataset()
	tasks := make([]PolyTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		tasks[i] = PolyTask{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	dev := gpu.NewDevice(gpu.GTX580())
	cfg := Config{Devices: []*gpu.Device{dev}}
	for i := 0; i < 3; i++ {
		for _, c := range []struct {
			name string
			run  func() (Result, error)
		}{
			{"Run", func() (Result, error) { return Run(textTasks(tasks), cfg) }},
			{"RunParsed", func() (Result, error) { return RunParsed(tasks, cfg) }},
		} {
			before := dev.Stats()
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			after := dev.Stats()
			if res.Stats.KernelLaunches == 0 || res.Stats.KernelLaunches != after.Launches-before.Launches {
				t.Errorf("%s %d: reports %d launches, the device ran %d during it",
					c.name, i, res.Stats.KernelLaunches, after.Launches-before.Launches)
			}
			if want := after.BusySeconds - before.BusySeconds; math.Abs(res.Stats.DeviceSeconds-want) > 1e-12 {
				t.Errorf("%s %d: reports %.9f device seconds, the device was busy %.9f during it",
					c.name, i, res.Stats.DeviceSeconds, want)
			}
		}
	}
}

// TestRunParsedRejectsMalformedTasks: a malformed tile (the tile pass's
// checks are tilepass's TestTilePassRejectsMalformedTasks) fails the run.
func TestRunParsedRejectsMalformedTasks(t *testing.T) {
	tp := smallDataset().Pairs[0]
	good := PolyTask{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B, TreeA: rtree.Index(tp.A), TreeB: rtree.Index(tp.B)}
	if _, err := RunParsed([]PolyTask{good}, Config{}); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.B, bad.TreeB = append(append([]*geom.Polygon{}, tp.B...), nil), nil
	if _, err := RunParsed([]PolyTask{good, bad}, Config{}); err == nil || !strings.Contains(err.Error(), "set B polygon") {
		t.Errorf("RunParsed = %v, want an error naming %q", err, "set B polygon")
	}
}

// TestGPUParseMatchesCPUAndChargesDevice: the parser migrator's GPU parse
// yields what Parse does and charges the device about the host's parse time.
func TestGPUParseMatchesCPUAndChargesDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var polys []*geom.Polygon
	for len(polys) < 30 {
		if p := geomtest.RandomPolygon(rng, 30); p != nil {
			polys = append(polys, p)
		}
	}
	data := parser.Encode(polys)
	dev := gpu.NewDevice(gpu.GTX580())
	got, secs, err := GPUParse(dev, data, 200e6)
	if err != nil {
		t.Fatalf("gpu parse: %v", err)
	}
	if len(got) != len(polys) {
		t.Fatalf("gpu parsed %d, want %d", len(got), len(polys))
	}
	if secs <= 0 {
		t.Fatal("gpu parse charged no device time")
	}
	if dev.Launches() != 1 {
		t.Fatalf("launches = %d", dev.Launches())
	}
	// Device throughput should be within 2x of the requested host parity.
	modelBPS := float64(len(data)) / secs
	if modelBPS > 500e6 {
		t.Fatalf("GPU parser throughput %e B/s implausibly above host parity", modelBPS)
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
