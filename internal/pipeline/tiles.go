package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/pixelbox"
	"repro/internal/rtree"
)

// RunParsed's executor: one pass per tile. Parsed tiles leave no text
// parsing to overlap, and a stored tile carries its trees, so the stages of
// Run would only hand each tile from goroutine to goroutine. Instead every
// executor of the pool takes the next whole tile off one cursor, builds any
// tree it lacks, joins the two trees and counts the pairs in join order.
// A GPU executor counts a tile in one launch, a CPU executor by a band walk
// per pair. Tiles are never split, so each tile's partial is folded in pair
// order whichever executor took it.

// runTiles runs tasks on the run's executors: one goroutine per device, one
// per CPU executor of a hybrid pool, and CPU.Workers (default GOMAXPROCS)
// for the lone CPU executor of a CPU-only run. In the stats one batch is one
// tile, and the builder, filter and aggregator busy times sum the tree
// builds, joins and counts of every worker.
func (r *run) runTiles(tasks []PolyTask) Result {
	start, dev0 := r.begin()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, e := range r.executors {
		workers := 1
		if e.kind == ExecCPU {
			workers = e.cpu.Workers
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
		}
		for w := min(workers, len(tasks)); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.tileWorker(e, tasks, &next)
			}()
		}
	}
	wg.Wait()
	return r.finalize(len(tasks), start, dev0)
}

// tileWorker takes tiles off next until there are none left.
func (r *run) tileWorker(e *executor, tasks []PolyTask, next *atomic.Int64) {
	var batchHist *metrics.Histogram
	if r.cfg.Registry != nil {
		batchHist = r.cfg.Registry.Histogram(metrics.Label("sccg_executor_batch_seconds", "kind", e.kind))
	}
	onGPU := e.kind == ExecGPU
	var (
		joined []rtree.Pair      // join scratch
		pairs  []pixelbox.Pair   // a GPU executor's launch input
		walk   pixelbox.BandWalk // a CPU executor's counter
	)
	for {
		i := next.Add(1) - 1
		if i >= int64(len(tasks)) {
			return
		}
		t := tasks[i]
		start := time.Now()
		ta, tb := t.TreeA, t.TreeB
		if ta == nil || tb == nil {
			if ta == nil {
				ta = rtree.Index(t.A)
			}
			if tb == nil {
				tb = rtree.Index(t.B)
			}
			built := time.Now()
			atomic.AddInt64(&r.builderBusy, int64(built.Sub(start)))
			start = built
		}
		joined, _ = rtree.Join(ta, tb, joined[:0])
		joinedAt := time.Now()
		atomic.AddInt64(&r.filterBusy, int64(joinedAt.Sub(start)))

		var part tileAgg
		if onGPU {
			pairs = pairs[:0]
			for _, pr := range joined {
				pairs = append(pairs, pixelbox.Pair{P: t.A[pr.A], Q: t.B[pr.B]})
			}
			results, _, _ := pixelbox.RunGPU(e.dev, pairs, r.cfg.PixelBox)
			for _, ar := range results {
				part.add(ar)
			}
		} else {
			for _, pr := range joined {
				part.add(walk.Areas(pixelbox.Pair{P: t.A[pr.A], Q: t.B[pr.B]}))
			}
		}
		elapsed := time.Since(joinedAt)
		r.addTile(tileKey{image: t.Image, tile: t.Tile}, part, len(joined), onGPU)
		e.observe(len(joined), elapsed)
		if batchHist != nil {
			batchHist.ObserveDuration(elapsed)
		}
		atomic.AddInt64(&r.aggBusy, int64(elapsed))
	}
}
