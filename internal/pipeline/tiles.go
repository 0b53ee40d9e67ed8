package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/pixelbox"
	"repro/internal/rtree"
)

// The tile pass: one parsed tile on one executor. Parsed tiles leave no text
// parsing to overlap, and a stored tile carries its trees, so the stages of
// Run would only hand each tile from goroutine to goroutine. Instead an
// executor builds any tree the tile lacks, joins the two trees and counts the
// pairs in join order: a GPU executor in one launch, a CPU executor by a band
// walk per pair. Tiles are never split, so each tile's partial is folded in
// pair order whichever executor took it, and Fold sums the partials in
// canonical tile order. RunParsed and the scheduler both run tiles this way.

// TileResult is one tile pass: the tile's ratio partial and what it cost.
type TileResult struct {
	Ratio      TileRatio
	Candidates int // MBR-intersecting pairs counted
	OnGPU      bool
	// Build, Join and Count time the tree builds (zero when the tile
	// carried both trees), the join and the count.
	Build, Join, Count time.Duration
	// Launches and DeviceSeconds are the kernel launch and the modelled
	// device time (transfers included) of a GPU pass.
	Launches      int64
	DeviceSeconds float64
}

// TilePass runs tiles on one executor: on Device when it is set, else on the
// CPU. It keeps scratch from tile to tile, so each goroutine owns one.
type TilePass struct {
	Device   *gpu.Device
	PixelBox pixelbox.Config

	joined []rtree.Pair      // join scratch
	pairs  []pixelbox.Pair   // a GPU pass's launch input
	walk   pixelbox.BandWalk // a CPU pass's counter
}

// Run builds, joins and counts tile t. A nil polygon is an error (text
// parsing can never produce one, so the join and the count assume their
// absence), and so is a tree that does not index as many polygons as its set
// holds: the join would pair the wrong polygons or index past the set.
func (p *TilePass) Run(t PolyTask) (TileResult, error) {
	for _, set := range [...]struct {
		name  byte
		polys []*geom.Polygon
		tree  *rtree.Tree
	}{{'A', t.A, t.TreeA}, {'B', t.B, t.TreeB}} {
		for i, poly := range set.polys {
			if poly == nil {
				return TileResult{}, fmt.Errorf("pipeline: tile %s/%d set %c polygon %d is nil", t.Image, t.Tile, set.name, i)
			}
		}
		if set.tree != nil && set.tree.Len() != len(set.polys) {
			return TileResult{}, fmt.Errorf("pipeline: tile %s/%d set %c tree indexes %d polygons, the set holds %d",
				t.Image, t.Tile, set.name, set.tree.Len(), len(set.polys))
		}
	}
	r := TileResult{Ratio: TileRatio{Image: t.Image, Tile: t.Tile}, OnGPU: p.Device != nil}
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
		r.Build, start = built.Sub(start), built
	}
	p.joined, _ = rtree.Join(ta, tb, p.joined[:0])
	joinedAt := time.Now()
	r.Join = joinedAt.Sub(start)

	var part tileAgg
	if p.Device != nil {
		p.pairs = p.pairs[:0]
		for _, pr := range p.joined {
			p.pairs = append(p.pairs, pixelbox.Pair{P: t.A[pr.A], Q: t.B[pr.B]})
		}
		results, launch, xfer := pixelbox.RunGPU(p.Device, p.pairs, p.PixelBox)
		for _, ar := range results {
			part.add(ar)
		}
		if launch.Blocks > 0 {
			r.Launches = 1
		}
		r.DeviceSeconds = launch.DeviceSeconds + xfer
	} else {
		for _, pr := range p.joined {
			part.add(p.walk.Areas(pixelbox.Pair{P: t.A[pr.A], Q: t.B[pr.B]}))
		}
	}
	r.Count = time.Since(joinedAt)
	r.Candidates = len(p.joined)
	r.Ratio.RatioSum, r.Ratio.Intersecting = part.ratioSum, part.hits
	return r, nil
}

// Fold is the result of a comparison whose tiles ran as tiles, in any order
// and on any executors: the partials summed in canonical tile order, the
// counters added. WallTime and Executors are the caller's to fill in.
func Fold(tiles []TileResult) Result {
	trs := make([]TileRatio, len(tiles))
	for i, t := range tiles {
		trs[i] = t.Ratio
	}
	res := foldRatios(trs)
	st := &res.Stats
	st.TilesProcessed = len(tiles)
	for _, t := range tiles {
		if t.OnGPU {
			st.PairsOnGPU += t.Candidates
		} else {
			st.PairsOnCPU += t.Candidates
		}
		st.BuilderBusy += t.Build
		st.FilterBusy += t.Join
		st.AggregatorBusy += t.Count
		st.KernelLaunches += t.Launches
		st.DeviceSeconds += t.DeviceSeconds
	}
	st.PairsFiltered = st.PairsOnGPU + st.PairsOnCPU
	res.Candidates = st.PairsFiltered
	return res
}

// RunParsed compares pre-parsed tile tasks. The store's read path uses it so
// already-validated datasets never pay the text re-encode/re-parse cost.
// There are no stages: each executor of the pool Run would build takes the
// next whole tile off one cursor and runs its tile pass — one goroutine per
// device, one per CPU executor of a hybrid pool, and CPU.Workers (default
// GOMAXPROCS) for the lone CPU executor of a CPU-only run. A malformed tile
// (see TilePass.Run) fails the run. In the executor stats one batch is one
// tile and Busy its count.
func RunParsed(tasks []PolyTask, cfg Config) (Result, error) {
	cfg = cfg.normalized()
	cfg.Warmth = nil
	start := time.Now()
	execs := buildExecutors(cfg)
	parts := make([]TileResult, len(tasks))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for _, e := range execs {
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
				pass := TilePass{Device: e.dev, PixelBox: cfg.PixelBox}
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
	res := Fold(parts)
	res.Stats.WallTime = time.Since(start)
	for _, e := range execs {
		res.Stats.Executors = append(res.Stats.Executors, e.snapshot())
	}
	return res, nil
}
