package pixelbox

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The CPU port of PixelBox (paper §4.2: "we have ported the PixelBox
// algorithms to CPUs, and parallelized its execution with multiple worker
// threads"). A pair is one BandWalk.Count over the intersection of the two
// MBRs.
// The sampling-box refinement the GPU kernel needs to keep thousands of
// threads fed buys a host core nothing once the count under it no longer
// costs pixels or rows, so the port has none and no threshold to tune.

// CPUConfig tunes the CPU port.
type CPUConfig struct {
	// Workers is the number of parallel workers for RunCPUParallel;
	// defaults to GOMAXPROCS.
	Workers int
}

// RunCPU computes the areas of intersection and union for all pairs on a
// single core.
func RunCPU(pairs []Pair, _ CPUConfig) []AreaResult {
	results := make([]AreaResult, len(pairs))
	var w BandWalk
	for i, pr := range pairs {
		results[i] = w.Areas(pr)
	}
	return results
}

// RunCPUParallel computes areas with cfg.Workers parallel workers pulling
// pairs off a shared atomic cursor (dynamic scheduling in the spirit of the
// paper's work-stealing TBB parallelisation). One worker runs inline.
func RunCPUParallel(pairs []Pair, cfg CPUConfig) []AreaResult {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(pairs))
	if workers <= 1 {
		return RunCPU(pairs, cfg)
	}
	results := make([]AreaResult, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for n := 0; n < workers; n++ {
		go func() {
			defer wg.Done()
			var w BandWalk
			for {
				i := next.Add(1) - 1
				if i >= int64(len(pairs)) {
					return
				}
				results[i] = w.Areas(pairs[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// Areas computes one pair: the intersection can only lie in the intersection
// of the two MBRs, and the union follows from ‖p∪q‖ = ‖p‖+‖q‖−‖p∩q‖.
func (w *BandWalk) Areas(pr Pair) AreaResult {
	inter := w.Count(pr.P, pr.Q, pr.P.MBR().Intersection(pr.Q.MBR()))
	return AreaResult{Intersection: inter, Union: pr.P.Area() + pr.Q.Area() - inter}
}
