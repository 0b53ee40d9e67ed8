// Package pipeline implements the SCCG system framework (paper §4): a
// four-stage execution pipeline — parser, builder, filter, aggregator —
// connected by bounded work buffers, with dynamic task migration between
// CPUs and GPUs driven by the aggregator input buffer's full/empty
// transitions (§4.2).
//
// Tasks are defined at image-tile granularity: a parser task is the two
// polygon files segmented from one tile; a builder task indexes the two
// parsed polygon sets; a filter task joins the two indexes into an array of
// MBR-intersecting polygon pairs; the aggregator batches pair arrays and
// computes areas with PixelBox.
//
// The aggregator is a hybrid executor pool (see hybrid.go): N simulated GPU
// devices and M PixelBox-CPU workers co-execute, stealing pair batches from
// the shared aggregator input buffer under a cost-model-driven policy that
// generalises the paper's buffer-pressure migration heuristic.
//
// The stages exist to overlap slow text parsing with the rest (Run). Tiles
// that arrive parsed (RunParsed) have nothing to overlap with, so each
// executor of the same pool takes whole tiles and builds, joins and counts
// each in one pass (tiles.go). Because PixelBox areas are exact integer pixel
// counts and Jaccard ratios are accumulated per tile in canonical order, the
// reported similarity is bit-identical no matter which executors computed
// which tiles, on either path.
package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/pixelbox"
	"repro/internal/rtree"
)

// FileTask is the pipeline input: the raw text polygon files of one tile's
// two result sets.
type FileTask struct {
	Image string
	Tile  int
	RawA  []byte
	RawB  []byte
}

// PolyTask is the pre-parsed pipeline input: one tile's two result sets as
// decoded polygon slices. Stored datasets, whose WKB records were fully
// validated at ingest, enter through RunParsed with PolyTasks and are never
// parsed — the polygons are the same values text parsing would produce, so
// the report stays bit-identical to the FileTask path.
//
// TreeA and TreeB are optional: rtree.Index(A) and rtree.Index(B), which the
// store builds once per decoded set and keeps with it. A task that carries a
// tree is not indexed again for that set; the tree is the one the run would
// have built, so the candidate pairs and their order are the same either
// way.
type PolyTask struct {
	Image        string
	Tile         int
	A, B         []*geom.Polygon
	TreeA, TreeB *rtree.Tree
}

// tileTask is one tile between the parser and the filter: the parser stage
// emits it without trees, the builder stage builds them.
type tileTask struct {
	image  string
	tile   int
	a, b   []*geom.Polygon
	ta, tb *rtree.Tree
}

// pairTask is the filter stage output and the aggregator's input.
type pairTask struct {
	image string
	tile  int
	pairs []pixelbox.Pair
}

// Config wires a pipeline run. ParserWorkers, BufferCap, BatchPairs,
// Migration and Warmth tune the staged pipeline and apply to Run only;
// RunParsed has no stages, buffers, batches or claims to size.
type Config struct {
	// ParserWorkers is the parser stage's CPU thread count (the stage
	// "executes on CPUs with multiple worker threads"); defaults to 2.
	ParserWorkers int
	// BufferCap is the capacity of each inter-stage buffer in tasks;
	// defaults to 8.
	BufferCap int
	// BatchPairs is the aggregator's batching target: an executor groups
	// buffered tasks until its claim target (derived from this value by the
	// stealing policy) is in hand before launching a kernel (GPU input data
	// batching, §4.1); defaults to 1024.
	BatchPairs int
	// Devices is the simulated GPU set the hybrid aggregator drives, one
	// executor goroutine per device (each device stays an exclusively-owned,
	// non-preemptive client, §4.1). Empty means no GPU executors.
	Devices []*gpu.Device
	// CPUAggregators is the number of PixelBox-CPU executors co-executing
	// with the GPU executors in the hybrid aggregator, one goroutine each.
	// When no devices are configured, one CPU aggregator always runs (using
	// CPU.Workers goroutines) so the pipeline degrades to PixelBox-CPU.
	CPUAggregators int
	// PixelBox configures the GPU kernel.
	PixelBox pixelbox.Config
	// CPU configures PixelBox-CPU for CPU executors and migrated tasks.
	CPU pixelbox.CPUConfig
	// Migration enables the dynamic task migration component (§4.2).
	Migration bool
	// Registry, when set, receives per-executor accounting (batches, pairs,
	// measured throughput) under names labelled with ExecutorLabel+id.
	Registry *metrics.Registry
	// ExecutorLabel prefixes executor IDs in Registry metric labels, so
	// several pipelines (e.g. scheduler shards) stay distinguishable.
	ExecutorLabel string
	// Warmth, when set, seeds each executor's throughput EWMA from its
	// remembered measurement (keyed by ExecutorLabel+id) and records the
	// final measurement back after the run, so first claim sizes carry over
	// across runs instead of resetting to the static priors. RunParsed,
	// which sizes no claims, ignores it.
	Warmth *ThroughputMemory
}

func (c Config) normalized() Config {
	if c.ParserWorkers <= 0 {
		c.ParserWorkers = 2
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 8
	}
	if c.BatchPairs <= 0 {
		c.BatchPairs = 1024
	}
	if c.CPUAggregators < 0 {
		c.CPUAggregators = 0
	}
	if len(c.Devices) == 0 && c.CPUAggregators == 0 {
		c.CPUAggregators = 1
	}
	return c
}

// Stats reports what the pipeline did.
type Stats struct {
	TilesProcessed int
	PairsFiltered  int
	PairsOnGPU     int
	PairsOnCPU     int
	TasksToCPU     int64 // aggregator tasks migrated GPU -> CPU
	TasksToGPU     int64 // parser tasks migrated CPU -> GPU
	KernelLaunches int64
	DeviceSeconds  float64 // modelled GPU busy time
	WallTime       time.Duration
	ParserBusy     time.Duration
	BuilderBusy    time.Duration
	FilterBusy     time.Duration
	AggregatorBusy time.Duration
	// Executors is the per-executor accounting of the hybrid aggregator.
	Executors []ExecutorStats
}

// TileRatio is one tile's contribution to J': the tile's Jaccard ratio sum
// folded in pair order. Keeping per-tile partials lets any combination of
// runs and shards recompute the dataset similarity in one canonical order,
// making the result bit-identical across executor configurations.
type TileRatio struct {
	Image        string
	Tile         int
	RatioSum     float64
	Intersecting int
}

// Result is the cross-comparison outcome for one image's two result sets.
type Result struct {
	// Similarity is J' (Eq. 1) aggregated over all tiles.
	Similarity float64
	// RatioSum is the raw sum of per-pair Jaccard ratios (the numerator of
	// J'), folded over TileRatios in canonical tile order.
	RatioSum float64
	// Intersecting and Candidates count truly-intersecting and
	// MBR-intersecting pairs.
	Intersecting int
	Candidates   int
	// TileRatios holds the per-tile partial sums in canonical (image, tile)
	// order; Merge uses them to keep shard merging bit-exact.
	TileRatios []TileRatio
	Stats      Stats
}

// Merge combines the results of several pipeline runs over disjoint tile
// shards of one comparison into the result a single run over the union would
// have produced. Similarity is recomputed from the per-tile ratio partials
// re-sorted into canonical order, so sharding changes neither the value nor
// the bits of the reported J'; wall time is the maximum across shards (they
// run concurrently), busy times and counters add.
func Merge(shards ...Result) Result {
	var m Result
	tileBased := true
	for _, s := range shards {
		if len(s.TileRatios) == 0 && (s.RatioSum != 0 || s.Intersecting != 0) {
			// A hand-built result without tile partials: fall back to
			// order-dependent summing for the whole merge.
			tileBased = false
		}
		m.Candidates += s.Candidates
		m.Stats.TilesProcessed += s.Stats.TilesProcessed
		m.Stats.PairsFiltered += s.Stats.PairsFiltered
		m.Stats.PairsOnGPU += s.Stats.PairsOnGPU
		m.Stats.PairsOnCPU += s.Stats.PairsOnCPU
		m.Stats.TasksToCPU += s.Stats.TasksToCPU
		m.Stats.TasksToGPU += s.Stats.TasksToGPU
		m.Stats.KernelLaunches += s.Stats.KernelLaunches
		m.Stats.DeviceSeconds += s.Stats.DeviceSeconds
		if s.Stats.WallTime > m.Stats.WallTime {
			m.Stats.WallTime = s.Stats.WallTime
		}
		m.Stats.ParserBusy += s.Stats.ParserBusy
		m.Stats.BuilderBusy += s.Stats.BuilderBusy
		m.Stats.FilterBusy += s.Stats.FilterBusy
		m.Stats.AggregatorBusy += s.Stats.AggregatorBusy
		m.Stats.Executors = append(m.Stats.Executors, s.Stats.Executors...)
	}
	if tileBased {
		for _, s := range shards {
			m.TileRatios = append(m.TileRatios, s.TileRatios...)
		}
		sortTileRatios(m.TileRatios)
		for _, tr := range m.TileRatios {
			m.RatioSum += tr.RatioSum
			m.Intersecting += tr.Intersecting
		}
	} else {
		for _, s := range shards {
			m.RatioSum += s.RatioSum
			m.Intersecting += s.Intersecting
		}
	}
	if m.Intersecting > 0 {
		m.Similarity = m.RatioSum / float64(m.Intersecting)
	}
	return m
}

func sortTileRatios(trs []TileRatio) {
	// Stable so that duplicate (image, tile) keys — which disjoint shards
	// never produce, but hand-built results might — keep their argument
	// order and the float fold stays deterministic.
	sort.SliceStable(trs, func(i, j int) bool {
		if trs[i].Image != trs[j].Image {
			return trs[i].Image < trs[j].Image
		}
		return trs[i].Tile < trs[j].Tile
	})
}

// Run executes the full pipeline over tasks and returns the image
// similarity and execution statistics. It is safe to call concurrently with
// distinct Configs/devices.
func Run(tasks []FileTask, cfg Config) (Result, error) {
	cfg = cfg.normalized()
	p := &run{cfg: cfg}
	return p.execute(tasks)
}

// RunParsed compares pre-parsed tile tasks. The store's read path uses it so
// already-validated datasets never pay the text re-encode/re-parse cost.
// There are no stages: each executor of the pool Run would build takes the
// next whole tile and builds any missing tree, joins and counts it in one
// pass (runTiles). Nil polygons are rejected up front (text parsing can
// never produce them, so the join and the count assume their absence), and
// so is a tree that does not index as many polygons as its set holds: the
// join would pair the wrong polygons or index past the set.
func RunParsed(tasks []PolyTask, cfg Config) (Result, error) {
	for _, t := range tasks {
		for _, set := range [...]struct {
			name  byte
			polys []*geom.Polygon
			tree  *rtree.Tree
		}{{'A', t.A, t.TreeA}, {'B', t.B, t.TreeB}} {
			for i, p := range set.polys {
				if p == nil {
					return Result{}, fmt.Errorf("pipeline: tile %s/%d set %c polygon %d is nil", t.Image, t.Tile, set.name, i)
				}
			}
			if set.tree != nil && set.tree.Len() != len(set.polys) {
				return Result{}, fmt.Errorf("pipeline: tile %s/%d set %c tree indexes %d polygons, the set holds %d",
					t.Image, t.Tile, set.name, set.tree.Len(), len(set.polys))
			}
		}
	}
	cfg = cfg.normalized()
	cfg.Warmth = nil
	p := &run{cfg: cfg}
	return p.runTiles(tasks), nil
}

// tileKey identifies one tile's accumulator.
type tileKey struct {
	image string
	tile  int
}

// tileAgg is one tile's ratio partial, folded in pair order by whichever
// executor processed the tile.
type tileAgg struct {
	ratioSum float64
	hits     int
}

// add folds one pair's areas into the partial.
func (a *tileAgg) add(ar pixelbox.AreaResult) {
	if ratio, ok := ar.Ratio(); ok {
		a.ratioSum += ratio
		a.hits++
	}
}

// run carries one pipeline execution's shared state.
type run struct {
	cfg Config

	fileBuf   *buffer[FileTask]
	parsedBuf *buffer[tileTask]
	builtBuf  *buffer[tileTask]
	pairBuf   *buffer[pairTask]

	executors []*executor
	// gpuClaimed opens when the first GPU executor has taken a batch (or
	// found the pair buffer drained); CPU executors wait on it.
	gpuClaimed     sync.WaitGroup
	gpuClaimedOnce sync.Once

	mu       sync.Mutex
	tiles    map[tileKey]*tileAgg
	firstErr error

	// pendingParse counts input tasks not yet pushed past the parser
	// stage; the parsed buffer closes when it reaches zero, which makes
	// parser workers and the parser migrator interchangeable producers.
	pendingParse int64

	stats Stats

	parserBusy, builderBusy, filterBusy, aggBusy int64 // atomic nanoseconds
	pairsGPU, pairsCPU                           int64
}

func (r *run) fail(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// accumulateTask folds one whole tile task's pair results into the tile's
// accumulator. The fold runs in the task's pair order and tasks never split
// tiles, so each tile's partial sum is independent of which executor
// computed it and of batch composition — the root of the pipeline's
// bit-exact determinism.
func (r *run) accumulateTask(t pairTask, results []pixelbox.AreaResult, onGPU bool) {
	var part tileAgg
	for _, ar := range results {
		part.add(ar)
	}
	r.addTile(tileKey{image: t.image, tile: t.tile}, part, len(results), onGPU)
}

// addTile adds one tile's partial, folded in pair order over pairs pairs,
// to the tile's accumulator.
func (r *run) addTile(key tileKey, part tileAgg, pairs int, onGPU bool) {
	r.mu.Lock()
	agg := r.tiles[key]
	if agg == nil {
		agg = &tileAgg{}
		r.tiles[key] = agg
	}
	agg.ratioSum += part.ratioSum
	agg.hits += part.hits
	r.mu.Unlock()
	if onGPU {
		atomic.AddInt64(&r.pairsGPU, int64(pairs))
	} else {
		atomic.AddInt64(&r.pairsCPU, int64(pairs))
	}
}

// begin sets up what both kinds of run share: the tile accumulators, the
// executor pool and the device counters the run's own accounting starts
// from.
func (r *run) begin() (start time.Time, dev0 []gpu.Snapshot) {
	r.tiles = make(map[tileKey]*tileAgg)
	r.executors = buildExecutors(r.cfg)
	for _, dev := range r.cfg.Devices {
		dev0 = append(dev0, dev.Stats())
	}
	return time.Now(), dev0
}

func (r *run) execute(files []FileTask) (Result, error) {
	cfg := r.cfg
	r.fileBuf = newBuffer[FileTask](cfg.BufferCap)
	r.parsedBuf = newBuffer[tileTask](cfg.BufferCap)
	r.builtBuf = newBuffer[tileTask](cfg.BufferCap)
	r.pairBuf = newBuffer[pairTask](cfg.BufferCap)
	start, dev0 := r.begin()
	total := len(files)

	// core counts the stages that drain the input: parser, builder, filter
	// and the executors. When they have all returned every pair has been
	// folded, and the migration threads are told to stop.
	var core sync.WaitGroup
	if len(cfg.Devices) > 0 {
		r.gpuClaimed.Add(1)
	}

	// Stage 1: parser (multi-threaded). The parsed buffer closes when the
	// pending-task counter drains, not when the workers exit, because the
	// parser migrator is an alternative producer.
	atomic.StoreInt64(&r.pendingParse, int64(total))
	if total == 0 {
		r.parsedBuf.close()
	}
	for w := 0; w < cfg.ParserWorkers; w++ {
		core.Add(1)
		go func() {
			defer core.Done()
			r.parserWorker()
		}()
	}

	// Stage 2: builder (single-threaded; "its execution speed is already
	// very fast").
	core.Add(1)
	go func() {
		defer core.Done()
		r.builderWorker()
		r.builtBuf.close()
	}()

	// Stage 3: filter (single-threaded).
	core.Add(1)
	go func() {
		defer core.Done()
		r.filterWorker()
		r.pairBuf.close()
	}()

	// Stage 4: aggregator — the hybrid executor pool. Each simulated GPU is
	// driven by exactly one goroutine (consolidated device access, §4.1);
	// CPU executors co-execute, all stealing from the shared pair buffer.
	for _, e := range r.executors {
		core.Add(1)
		go func(e *executor) {
			defer core.Done()
			r.executorWorker(e)
		}(e)
	}

	// Migration threads (§4.2): asleep until buffer transitions wake them.
	done := make(chan struct{})
	var migrators sync.WaitGroup
	if cfg.Migration {
		migrators.Add(2)
		go func() {
			defer migrators.Done()
			r.aggregatorMigrator(done)
		}()
		go func() {
			defer migrators.Done()
			r.parserMigrator(done)
		}()
	}

	// Feed the input and drain the pipeline.
	for _, t := range files {
		r.fileBuf.put(t)
	}
	r.fileBuf.close()

	// A migrator holding a stolen task keeps its stage's accounting open
	// (the parser migrator through pendingParse) or finishes it before it
	// next looks at done (the aggregator migrator), so nothing is lost by
	// stopping them only now.
	core.Wait()
	close(done)
	migrators.Wait()

	res := r.finalize(total, start, dev0)
	for _, e := range r.executors {
		// Only executors that actually processed a batch measured anything;
		// an idle executor must not overwrite its remembered throughput.
		if cfg.Warmth != nil && atomic.LoadInt64(&e.batches) > 0 {
			cfg.Warmth.Record(cfg.ExecutorLabel+e.id, e.throughput())
		}
	}
	return res, r.firstErr
}

// finalize folds the per-tile partials in canonical order and assembles the
// result and statistics. Every pair the run filtered has been counted by
// now, so the candidates are the pairs the executors counted.
func (r *run) finalize(total int, start time.Time, dev0 []gpu.Snapshot) Result {
	res := Result{TileRatios: make([]TileRatio, 0, len(r.tiles))}
	for key, agg := range r.tiles {
		res.TileRatios = append(res.TileRatios, TileRatio{
			Image:        key.image,
			Tile:         key.tile,
			RatioSum:     agg.ratioSum,
			Intersecting: agg.hits,
		})
	}
	sortTileRatios(res.TileRatios)
	for _, tr := range res.TileRatios {
		res.RatioSum += tr.RatioSum
		res.Intersecting += tr.Intersecting
	}
	if res.Intersecting > 0 {
		res.Similarity = res.RatioSum / float64(res.Intersecting)
	}
	r.stats.WallTime = time.Since(start)
	r.stats.PairsOnGPU = int(atomic.LoadInt64(&r.pairsGPU))
	r.stats.PairsOnCPU = int(atomic.LoadInt64(&r.pairsCPU))
	r.stats.PairsFiltered = r.stats.PairsOnGPU + r.stats.PairsOnCPU
	res.Candidates = r.stats.PairsFiltered
	r.stats.TilesProcessed = total
	r.stats.ParserBusy = time.Duration(atomic.LoadInt64(&r.parserBusy))
	r.stats.BuilderBusy = time.Duration(atomic.LoadInt64(&r.builderBusy))
	r.stats.FilterBusy = time.Duration(atomic.LoadInt64(&r.filterBusy))
	r.stats.AggregatorBusy = time.Duration(atomic.LoadInt64(&r.aggBusy))
	// A device outlives the run (a scheduler slot's, an Engine's), so its
	// counters are running totals: report what they gained during the run.
	for i, dev := range r.cfg.Devices {
		d := dev.Stats()
		r.stats.KernelLaunches += d.Launches - dev0[i].Launches
		r.stats.DeviceSeconds += d.BusySeconds - dev0[i].BusySeconds
	}
	for _, e := range r.executors {
		r.stats.Executors = append(r.stats.Executors, e.snapshot())
	}
	r.publishMetrics()
	res.Stats = r.stats
	return res
}

// publishMetrics surfaces per-executor accounting through the configured
// metrics registry.
func (r *run) publishMetrics() {
	reg := r.cfg.Registry
	if reg == nil {
		return
	}
	for _, e := range r.executors {
		id := r.cfg.ExecutorLabel + e.id
		reg.Counter(metrics.Label("sccg_executor_batches_total", "executor", id)).Add(atomic.LoadInt64(&e.batches))
		reg.Counter(metrics.Label("sccg_executor_pairs_total", "executor", id)).Add(atomic.LoadInt64(&e.pairs))
		reg.Gauge(metrics.Label("sccg_executor_pairs_per_sec", "executor", id)).Set(e.throughput())
	}
}

// finishParseTask records that one input task has fully left the parser
// stage (successfully or not) and closes the parsed buffer after the last
// one.
func (r *run) finishParseTask() {
	if atomic.AddInt64(&r.pendingParse, -1) == 0 {
		r.parsedBuf.close()
	}
}

// parserWorker drains fileBuf, parsing tile files on the CPU.
func (r *run) parserWorker() {
	for {
		task, ok := r.fileBuf.get()
		if !ok {
			return
		}
		start := time.Now()
		a, err := parser.Parse(task.RawA)
		if err != nil {
			r.fail(fmt.Errorf("pipeline: tile %d set A: %w", task.Tile, err))
			r.finishParseTask()
			continue
		}
		b, err := parser.Parse(task.RawB)
		if err != nil {
			r.fail(fmt.Errorf("pipeline: tile %d set B: %w", task.Tile, err))
			r.finishParseTask()
			continue
		}
		atomic.AddInt64(&r.parserBusy, int64(time.Since(start)))
		r.parsedBuf.put(tileTask{image: task.Image, tile: task.Tile, a: a, b: b})
		r.finishParseTask()
	}
}

// builderWorker builds the Hilbert R-trees of each parsed tile's two sets.
func (r *run) builderWorker() {
	for {
		task, ok := r.parsedBuf.get()
		if !ok {
			return
		}
		start := time.Now()
		task.ta, task.tb = rtree.Index(task.a), rtree.Index(task.b)
		atomic.AddInt64(&r.builderBusy, int64(time.Since(start)))
		r.builtBuf.put(task)
	}
}

// filterWorker joins the two indexes of each tile into the polygon-pair
// array the aggregator consumes.
func (r *run) filterWorker() {
	var joined []rtree.Pair // join scratch: a tile keeps only its exact-size pair array
	for {
		task, ok := r.builtBuf.get()
		if !ok {
			return
		}
		start := time.Now()
		joined, _ = rtree.Join(task.ta, task.tb, joined[:0])
		pairs := make([]pixelbox.Pair, len(joined))
		for i, pr := range joined {
			pairs[i] = pixelbox.Pair{P: task.a[pr.A], Q: task.b[pr.B]}
		}
		atomic.AddInt64(&r.filterBusy, int64(time.Since(start)))
		r.pairBuf.put(pairTask{image: task.image, tile: task.tile, pairs: pairs})
	}
}

// aggregatorMigrator sleeps until the aggregator's input buffer fills (GPU
// congestion), then steals the smallest task and executes it with
// PixelBox-CPU.
func (r *run) aggregatorMigrator(done chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-r.pairBuf.fullCh:
		}
		for r.pairBuf.isFull() {
			task, ok := r.pairBuf.stealMin(func(t pairTask) int { return len(t.pairs) })
			if !ok {
				break
			}
			atomic.AddInt64(&r.stats.TasksToCPU, 1)
			results := pixelbox.RunCPUParallel(task.pairs, r.cfg.CPU)
			r.accumulateTask(task, results, false)
		}
	}
}

// parserMigrator sleeps until the aggregator's input buffer runs empty (GPU
// idle), then steals a file task from the parser's input buffer and parses
// it on the GPU.
func (r *run) parserMigrator(done chan struct{}) {
	if len(r.cfg.Devices) == 0 {
		<-done
		return
	}
	dev := r.cfg.Devices[0]
	// Calibrate host parse throughput lazily from parser busy counters; a
	// fixed conservative default until data exists.
	for {
		select {
		case <-done:
			return
		case <-r.pairBuf.emptyCh:
		}
		task, ok := r.fileBuf.stealMin(func(t FileTask) int { return len(t.RawA) + len(t.RawB) })
		if !ok {
			continue
		}
		atomic.AddInt64(&r.stats.TasksToGPU, 1)
		a, _, errA := parser.GPUParse(dev, task.RawA, 150e6)
		b, _, errB := parser.GPUParse(dev, task.RawB, 150e6)
		if errA != nil || errB != nil {
			if errA == nil {
				errA = errB
			}
			r.fail(fmt.Errorf("pipeline: gpu parse tile %d: %w", task.Tile, errA))
			r.finishParseTask()
			continue
		}
		r.parsedBuf.put(tileTask{image: task.Image, tile: task.Tile, a: a, b: b})
		r.finishParseTask()
	}
}
