package pixelbox

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// CPUConfig tunes the CPU port of PixelBox (paper §4.2: "we have ported the
// PixelBox algorithms to CPUs, and parallelized its execution with multiple
// worker threads").
type CPUConfig struct {
	// Threshold is the pixelization threshold in pixels; boxes at or below
	// it are counted directly by the row-run counter. Defaults to
	// defaultCPUThreshold.
	Threshold int
	// Workers is the number of parallel workers for RunCPUParallel;
	// defaults to GOMAXPROCS.
	Workers int
}

// defaultCPUThreshold is the CPU port's leaf size. A row-run leaf costs
// rows × edges, not pixels × edges, so quad-splitting a hovering box scans
// the same rows once per quadrant and pays only where whole quadrants
// classify as inside or outside. Swept over the representative dataset's 671
// filtered pairs (ms per RunCPU pass, best of 30, one core; mean window 252 /
// 2266 / 6295 pixels at SF 1 / 3 / 5):
//
//	T     16     64     256    1024   4096   16384  65536  1<<20
//	SF1   7.14   4.20   2.51   1.93   1.94   1.90   1.95   1.85
//	SF3   20.7   15.1   9.73   6.34   4.17   3.72   3.71   3.65
//	SF5   35.5   24.1   16.1   11.4   7.37   4.97   4.75   4.79
//
// Every row falls until the typical window is itself a leaf and is flat from
// there; 1<<16 is the first column flat at all three scales, and still
// splits the rare window larger than that.
const defaultCPUThreshold = 1 << 16

func (c CPUConfig) normalized() CPUConfig {
	if c.Threshold <= 0 {
		c.Threshold = defaultCPUThreshold
	}
	if c.Threshold < 2 {
		c.Threshold = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// RunCPU computes the areas of intersection and union for all pairs on a
// single core.
func RunCPU(pairs []Pair, cfg CPUConfig) []AreaResult {
	cfg = cfg.normalized()
	results := make([]AreaResult, len(pairs))
	var pc pairCtx
	for i, pr := range pairs {
		results[i] = pc.pair(pr, cfg.Threshold)
	}
	return results
}

// RunCPUParallel computes areas with cfg.Workers parallel workers pulling
// pairs off a shared atomic cursor (dynamic scheduling in the spirit of the
// paper's work-stealing TBB parallelisation). One worker runs inline.
func RunCPUParallel(pairs []Pair, cfg CPUConfig) []AreaResult {
	cfg = cfg.normalized()
	workers := min(cfg.Workers, len(pairs))
	if workers <= 1 {
		return RunCPU(pairs, cfg)
	}
	results := make([]AreaResult, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var pc pairCtx
			for {
				i := next.Add(1) - 1
				if i >= int64(len(pairs)) {
					return
				}
				results[i] = pc.pair(pairs[i], cfg.Threshold)
			}
		}()
	}
	wg.Wait()
	return results
}

// pairCtx is one worker's state: the pair under refinement and the row-run
// scratch that outlives it.
type pairCtx struct {
	p, q *geom.Polygon
	rows rowRuns
}

// pair computes one pair with the sampling-box + pixelization scheme and
// indirect union.
func (pc *pairCtx) pair(pr Pair, threshold int) AreaResult {
	pc.p, pc.q = pr.P, pr.Q
	window := pr.P.MBR().Intersection(pr.Q.MBR())
	res := AreaResult{Union: pr.P.Area() + pr.Q.Area()}
	if !window.IsEmpty() {
		res.Intersection = pc.refine(window, int64(threshold))
		res.Union -= res.Intersection
	}
	return res
}

// refine recursively classifies a box against both polygons (Lemma 1),
// quad-splitting hovering boxes until they fall below the pixelization
// threshold.
func (pc *pairCtx) refine(box geom.MBR, threshold int64) int64 {
	φ1 := pc.p.BoxPosition(box)
	if φ1 == geom.BoxOutside {
		return 0
	}
	φ2 := pc.q.BoxPosition(box)
	if φ2 == geom.BoxOutside {
		return 0
	}
	if φ1 == geom.BoxInside && φ2 == geom.BoxInside {
		return box.Pixels()
	}
	if box.Pixels() <= threshold || (box.Width() == 1 && box.Height() == 1) {
		inter, _, _ := pc.rows.count(pc.p, pc.q, box)
		return inter
	}
	midX := box.MinX + box.Width()/2
	midY := box.MinY + box.Height()/2
	var total int64
	quads := [4]geom.MBR{
		{MinX: box.MinX, MinY: box.MinY, MaxX: midX, MaxY: midY},
		{MinX: midX, MinY: box.MinY, MaxX: box.MaxX, MaxY: midY},
		{MinX: box.MinX, MinY: midY, MaxX: midX, MaxY: box.MaxY},
		{MinX: midX, MinY: midY, MaxX: box.MaxX, MaxY: box.MaxY},
	}
	for _, qd := range quads {
		if !qd.IsEmpty() {
			total += pc.refine(qd, threshold)
		}
	}
	return total
}
