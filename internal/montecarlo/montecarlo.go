// Package montecarlo implements the Monte Carlo area estimator the paper
// discusses as the natural GPU-friendly alternative (§6, citing Fishman):
// repeatedly cast random sampling points into the pair's bounding window and
// count how many fall inside the intersection/union. It exists as a
// comparator: it parallelises as well as PixelBox, but it is only
// approximate, and reaching useful accuracy requires so many samples that
// it is far more compute-intensive than the optimised PixelBox — the
// relationship BenchmarkMonteCarloVsPixelBox demonstrates.
package montecarlo

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/pixelbox"
)

// Estimate approximates one pair's areas of intersection and union from
// `samples` uniform random pixels in the pair's union-MBR window.
func Estimate(rng *rand.Rand, p, q *geom.Polygon, samples int) pixelbox.AreaResult {
	window := p.MBR().Union(q.MBR())
	if window.IsEmpty() || samples <= 0 {
		return pixelbox.AreaResult{}
	}
	w := window.Width()
	h := window.Height()
	var interHits, unionHits int
	for s := 0; s < samples; s++ {
		x := window.MinX + rng.Int31n(w)
		y := window.MinY + rng.Int31n(h)
		inP := p.ContainsPixel(x, y)
		inQ := q.ContainsPixel(x, y)
		if inP && inQ {
			interHits++
		}
		if inP || inQ {
			unionHits++
		}
	}
	total := float64(window.Pixels())
	return pixelbox.AreaResult{
		Intersection: int64(float64(interHits) / float64(samples) * total),
		Union:        int64(float64(unionHits) / float64(samples) * total),
	}
}

// EstimateAll estimates every pair with a fixed per-pair sample budget.
func EstimateAll(seed int64, pairs []pixelbox.Pair, samplesPerPair int) []pixelbox.AreaResult {
	rng := rand.New(rand.NewSource(seed))
	out := make([]pixelbox.AreaResult, len(pairs))
	for i, pr := range pairs {
		out[i] = Estimate(rng, pr.P, pr.Q, samplesPerPair)
	}
	return out
}

// Cost-model constants for the GPU variant: each sample needs two random
// numbers (a few ALU ops of counter-based PRNG) plus two point-in-polygon
// ray casts.
const (
	prngOps      = 8
	pixelTestOps = 5
	loopOverhead = 1
)

// RunGPU models Monte Carlo on the simulated device: the estimation runs
// for real on the host while each block is charged for its samples' PRNG
// and edge-loop work. The returned device seconds are directly comparable
// with pixelbox.RunGPU's.
func RunGPU(dev *gpu.Device, pairs []pixelbox.Pair, samplesPerPair, blockSize int, seed int64) ([]pixelbox.AreaResult, gpu.LaunchResult) {
	if blockSize <= 0 {
		blockSize = pixelbox.DefaultBlockSize
	}
	results := make([]pixelbox.AreaResult, len(pairs))
	if len(pairs) == 0 {
		return results, gpu.LaunchResult{}
	}
	grid := dev.Config().SMs * dev.Config().MaxBlocksPerSM * 4
	if grid > len(pairs) {
		grid = len(pairs)
	}
	launch := dev.Launch(grid, blockSize, 0, func(b *gpu.Block) {
		for i := b.Idx; i < len(pairs); i += b.GridDim {
			pr := pairs[i]
			rng := rand.New(rand.NewSource(seed + int64(i)))
			results[i] = Estimate(rng, pr.P, pr.Q, samplesPerPair)
			edges := pr.P.NumVertices() + pr.Q.NumVertices()
			opsPerSample := prngOps + edges*(pixelTestOps+loopOverhead) + 4
			b.Strided(samplesPerPair, opsPerSample)
			b.L1Read((samplesPerPair + b.BlockDim - 1) / b.BlockDim * edges)
		}
	})
	return results, launch
}
