// Package tilepass is the compute of one comparison: each parsed tile runs
// on one executor in one pass — build any tree the tile lacks, join the two
// trees, count the pairs in join order (a GPU executor in one launch, a CPU
// executor by a band walk per pair) — and Fold sums the tiles' partials in
// canonical tile order. Tiles are never split and PixelBox areas are exact
// integer pixel counts, so the similarity is bit-identical whichever
// executors computed which tiles. The scheduler runs every job this way;
// internal/pipeline runs parsed tiles the same way and folds its text runs
// with the same FoldRatios.
package tilepass

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/pixelbox"
	"repro/internal/rtree"
)

// Executor kinds.
const (
	ExecGPU = "gpu"
	ExecCPU = "cpu"
)

// PolyTask is one tile's two result sets as decoded polygon slices: the same
// values text parsing would produce, so reports match the text path's bits.
//
// TreeA and TreeB are optional: rtree.Index(A) and rtree.Index(B), which the
// store builds once per decoded set and keeps with it. A task that carries a
// tree is not indexed again for that set; the tree is the one the pass would
// have built, so the candidate pairs and their order are the same either
// way.
type PolyTask struct {
	Image        string
	Tile         int
	A, B         []*geom.Polygon
	TreeA, TreeB *rtree.Tree
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

// Add folds one pair's areas into the partial.
func (tr *TileRatio) Add(ar pixelbox.AreaResult) {
	if ratio, ok := ar.Ratio(); ok {
		tr.RatioSum += ratio
		tr.Intersecting++
	}
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
	// order; merging shards re-folds them to stay bit-exact.
	TileRatios []TileRatio
	Stats      Stats
}

// Stats reports what a comparison did; the parser and migration figures are
// the staged pipeline's.
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
	Executors      []ExecutorStats
}

// ExecutorStats reports one executor's work. Where executors take whole
// tiles one batch is one tile and Busy is the time spent counting.
type ExecutorStats struct {
	ID      string
	Kind    string // ExecGPU or ExecCPU
	Batches int64
	Pairs   int64
	Busy    time.Duration
	// PairsPerSec is the executor's final measured throughput (EWMA over
	// its batches); only the staged pipeline sizes claims with it.
	PairsPerSec float64
}

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
				return TileResult{}, fmt.Errorf("tilepass: tile %s/%d set %c polygon %d is nil", t.Image, t.Tile, set.name, i)
			}
		}
		if set.tree != nil && set.tree.Len() != len(set.polys) {
			return TileResult{}, fmt.Errorf("tilepass: tile %s/%d set %c tree indexes %d polygons, the set holds %d",
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

	if p.Device != nil {
		p.pairs = p.pairs[:0]
		for _, pr := range p.joined {
			p.pairs = append(p.pairs, pixelbox.Pair{P: t.A[pr.A], Q: t.B[pr.B]})
		}
		results, launch, xfer := pixelbox.RunGPU(p.Device, p.pairs, p.PixelBox)
		for _, ar := range results {
			r.Ratio.Add(ar)
		}
		if launch.Blocks > 0 {
			r.Launches = 1
		}
		r.DeviceSeconds = launch.DeviceSeconds + xfer
	} else {
		for _, pr := range p.joined {
			r.Ratio.Add(p.walk.Areas(pixelbox.Pair{P: t.A[pr.A], Q: t.B[pr.B]}))
		}
	}
	r.Count = time.Since(joinedAt)
	r.Candidates = len(p.joined)
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
	res := FoldRatios(trs)
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

// FoldRatios sorts per-tile partials into canonical (image, tile) order,
// adds the partials of a key given twice into one in argument order, and
// sums them: the one fold behind every path's similarity, so its bits never
// depend on which run, executor or worker computed which tile. It reorders
// trs and reuses it for the result's TileRatios.
func FoldRatios(trs []TileRatio) Result {
	// Stable so that duplicate (image, tile) keys — which disjoint shards
	// never produce, but hand-built results might — keep their argument
	// order and the float fold stays deterministic.
	sort.SliceStable(trs, func(i, j int) bool {
		if trs[i].Image != trs[j].Image {
			return trs[i].Image < trs[j].Image
		}
		return trs[i].Tile < trs[j].Tile
	})
	res := Result{TileRatios: trs[:0]}
	for _, tr := range trs {
		if n := len(res.TileRatios) - 1; n >= 0 && res.TileRatios[n].Image == tr.Image && res.TileRatios[n].Tile == tr.Tile {
			res.TileRatios[n].RatioSum += tr.RatioSum
			res.TileRatios[n].Intersecting += tr.Intersecting
		} else {
			res.TileRatios = append(res.TileRatios, tr)
		}
	}
	for _, tr := range res.TileRatios {
		res.RatioSum += tr.RatioSum
		res.Intersecting += tr.Intersecting
	}
	if res.Intersecting > 0 {
		res.Similarity = res.RatioSum / float64(res.Intersecting)
	}
	return res
}
