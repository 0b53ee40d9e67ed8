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
// executor of the same pool takes whole tiles and runs the tile pass of
// internal/tilepass on each, as the sccgd scheduler does. Because PixelBox
// areas are exact integer pixel counts and both paths fold their per-tile
// ratio partials with tilepass.FoldRatios in canonical order, the reported
// similarity is bit-identical no matter which executors computed which
// tiles, on either path.
package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/parser"
	"repro/internal/pixelbox"
	"repro/internal/rtree"
	"repro/internal/tilepass"
)

// FileTask is the pipeline input: the raw text polygon files of one tile's
// two result sets.
type FileTask = parser.FileTask

// PolyTask is the pre-parsed pipeline input: one tile's two result sets as
// decoded polygon slices, with the trees a stored tile carries.
type PolyTask = tilepass.PolyTask

// Result is a run's cross-comparison outcome.
type Result = tilepass.Result

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
	// ExecutorLabel prefixes executor IDs in Warmth keys, so several
	// executor sets sharing one memory stay distinguishable.
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
		var trs []tilepass.TileRatio
		for _, s := range shards {
			trs = append(trs, s.TileRatios...)
		}
		f := tilepass.FoldRatios(trs)
		m.TileRatios, m.RatioSum, m.Intersecting, m.Similarity = f.TileRatios, f.RatioSum, f.Intersecting, f.Similarity
		return m
	}
	for _, s := range shards {
		m.RatioSum += s.RatioSum
		m.Intersecting += s.Intersecting
	}
	if m.Intersecting > 0 {
		m.Similarity = m.RatioSum / float64(m.Intersecting)
	}
	return m
}

// Run executes the full pipeline over tasks and returns the image
// similarity and execution statistics. It is safe to call concurrently with
// distinct Configs/devices.
func Run(tasks []FileTask, cfg Config) (Result, error) {
	cfg = cfg.normalized()
	p := &run{cfg: cfg}
	return p.execute(tasks)
}

// RunParsed compares pre-parsed tile tasks, which pay no text re-encode or
// re-parse. There are no stages: each executor of the pool Run would build
// takes the next whole tile off one cursor and runs its tile pass — one
// goroutine per device, one per CPU executor of a hybrid pool, and
// CPU.Workers (default GOMAXPROCS) for the lone CPU executor of a CPU-only
// run. A malformed tile (see tilepass.TilePass.Run) fails the run. In the
// executor stats one batch is one tile and Busy its count.
func RunParsed(tasks []PolyTask, cfg Config) (Result, error) {
	cfg = cfg.normalized()
	cfg.Warmth = nil
	start := time.Now()
	execs := buildExecutors(cfg)
	parts := make([]tilepass.TileResult, len(tasks))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for _, e := range execs {
		workers := 1
		if e.kind == tilepass.ExecCPU {
			workers = e.cpu.Workers
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
		}
		for w := min(workers, len(tasks)); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pass := tilepass.TilePass{Device: e.dev, PixelBox: cfg.PixelBox}
				for i := next.Add(1) - 1; i < int64(len(tasks)); i = next.Add(1) - 1 {
					r, err := pass.Run(tasks[i])
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						next.Store(int64(len(tasks))) // hand out no more tiles
						return
					}
					parts[i] = r
					e.observe(r.Candidates, r.Count)
				}
			}()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return Result{}, firstErr
	}
	res := tilepass.Fold(parts)
	res.Stats.WallTime = time.Since(start)
	for _, e := range execs {
		res.Stats.Executors = append(res.Stats.Executors, e.snapshot())
	}
	return res, nil
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
	tiles    []tilepass.TileRatio // each pair task's partial, folded by finalize
	firstErr error

	// pendingParse counts input tasks not yet pushed past the parser
	// stage; the parsed buffer closes when it reaches zero, which makes
	// parser workers and the parser migrator interchangeable producers.
	pendingParse int64

	stats tilepass.Stats

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
// partial. The fold runs in the task's pair order and tasks never split
// tiles, so each tile's partial sum is independent of which executor
// computed it and of batch composition — the root of the pipeline's
// bit-exact determinism.
func (r *run) accumulateTask(t pairTask, results []pixelbox.AreaResult, onGPU bool) {
	var part tilepass.TileRatio
	for _, ar := range results {
		part.Add(ar)
	}
	part.Image, part.Tile = t.image, t.tile
	r.mu.Lock()
	r.tiles = append(r.tiles, part)
	r.mu.Unlock()
	if onGPU {
		atomic.AddInt64(&r.pairsGPU, int64(len(results)))
	} else {
		atomic.AddInt64(&r.pairsCPU, int64(len(results)))
	}
}

func (r *run) execute(files []FileTask) (Result, error) {
	cfg := r.cfg
	r.fileBuf = newBuffer[FileTask](cfg.BufferCap)
	r.parsedBuf = newBuffer[tileTask](cfg.BufferCap)
	r.builtBuf = newBuffer[tileTask](cfg.BufferCap)
	r.pairBuf = newBuffer[pairTask](cfg.BufferCap)
	r.tiles = make([]tilepass.TileRatio, 0, len(files))
	r.executors = buildExecutors(cfg)
	// A device outlives the run (an Engine's), so its counters are running
	// totals: the run reports what they gain while it runs.
	dev0 := make([]gpu.Snapshot, len(cfg.Devices))
	for i, dev := range cfg.Devices {
		dev0[i] = dev.Stats()
	}
	start := time.Now()
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
	res := tilepass.FoldRatios(r.tiles)
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
	for i, dev := range r.cfg.Devices {
		d := dev.Stats()
		r.stats.KernelLaunches += d.Launches - dev0[i].Launches
		r.stats.DeviceSeconds += d.BusySeconds - dev0[i].BusySeconds
	}
	for _, e := range r.executors {
		r.stats.Executors = append(r.stats.Executors, e.snapshot())
	}
	res.Stats = r.stats
	return res
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
		a, _, errA := GPUParse(dev, task.RawA, 150e6)
		b, _, errB := GPUParse(dev, task.RawB, 150e6)
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

// GPUParse parses a polygon file "on the GPU": the decoding runs on the
// host (results identical to Parse), while the virtual device is charged
// time equivalent to the host's single-core parsing throughput.
//
// This parity is the paper's own measurement (§4.2): the GPU parser — an FSM
// whose warps fully serialise on per-character divergence and whose byte
// loads cannot coalesce — achieves performance "only comparable to its CPU
// counterpart". hostBytesPerSec is the calibrated CPU parser throughput.
func GPUParse(dev *gpu.Device, data []byte, hostBytesPerSec float64) ([]*geom.Polygon, float64, error) {
	polys, err := parser.Parse(data)
	if err != nil {
		return nil, 0, err
	}
	if hostBytesPerSec <= 0 {
		hostBytesPerSec = 100e6
	}
	cfg := dev.Config()
	targetSecs := float64(len(data)) / hostBytesPerSec
	// Express the cost as a kernel over 4 KiB chunks whose per-byte charge
	// realises the target throughput, so device accounting (busy time,
	// launches) stays consistent with other kernels.
	const chunk = 4096
	blocks := (len(data) + chunk - 1) / chunk
	if blocks == 0 {
		blocks = 1
	}
	cyclesPerBlock := targetSecs * cfg.ClockHz * float64(cfg.SMs) / float64(blocks)
	res := dev.Launch(blocks, 32, 0, func(b *gpu.Block) {
		b.Uniform(int(cyclesPerBlock))
	})
	xfer := dev.Transfer(int64(len(data)))
	return polys, res.DeviceSeconds + xfer, nil
}
