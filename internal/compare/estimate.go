package compare

// Monte-Carlo cell estimates for progressive matrix runs. Where bound.go
// answers "how high could this cell possibly be" from manifest metadata,
// EstimatePair answers "where does it probably land" by decoding a small
// sample of matched tiles, indexing one side's polygons in an R-tree, and
// casting random pixels through the MBR-intersecting pairs. The estimate is
// approximate by construction and is used only to refine the planner's
// submission order — never to skip a cell, which only the sound bound may do.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/montecarlo"
	"repro/internal/rtree"
	"repro/internal/sched"
	"repro/internal/store"
)

// Estimation budget: a few tiles and a modest per-pair sample count keep the
// plan phase far cheaper than a single exact cell job.
const (
	estimateMaxTiles       = 4
	estimateMaxPairs       = 256
	estimateSamplesPerPair = 128
)

// CellEstimate is a Monte-Carlo guess at one cell's similarity with a
// confidence measure.
type CellEstimate struct {
	// Mean is the estimated similarity: the average estimated Jaccard ratio
	// over the sampled pairs that showed any intersection.
	Mean float64 `json:"mean"`
	// StdErr is the pooled standard error of Mean.
	StdErr float64 `json:"stderr"`
	// Pairs and Tiles report the sample the estimate rests on.
	Pairs int `json:"pairs"`
	Tiles int `json:"tiles"`
}

// EstimatePair estimates the similarity of dataset idA's set A against
// dataset idB's set B. The RNG seed derives from the dataset IDs, so repeated
// plans over the same pair order cells identically.
func EstimatePair(st *store.Store, idA, idB string) (CellEstimate, error) {
	_, src, _, _, err := OpenPair(st, idA, idB)
	if err != nil {
		return CellEstimate{}, err
	}
	return estimateSource(src, rand.New(rand.NewSource(pairSeed(idA, idB))))
}

// estimateSource estimates the similarity over src's matched tiles (either
// source OpenPair returns: the cross source, or for a self comparison the
// dataset's own).
func estimateSource(src sched.TaskSource, rng *rand.Rand) (CellEstimate, error) {
	// Spread the tile sample across the matched range instead of taking a
	// prefix: canonical tile order correlates with spatial position, and a
	// prefix would estimate one corner of the image.
	n := src.Len()
	step := 1
	if n > estimateMaxTiles {
		step = n / estimateMaxTiles
	}

	var est CellEstimate
	var varSum float64
	for i := 0; i < n && est.Tiles < estimateMaxTiles; i += step {
		pt, err := src.PolyTask(i)
		if err != nil {
			return CellEstimate{}, fmt.Errorf("estimate tile %d: %w", i, err)
		}
		est.Tiles++

		// Probe set A's index with each B polygon: the tree the store kept
		// with the set, or the same tree built here when the source carries
		// none. The R-tree prunes the candidate pairs to MBR intersections,
		// mirroring the exact kernel's filter stage.
		tr := pt.TreeA
		if tr == nil {
			tr = rtree.Index(pt.A)
		}
		var hits []int32
		for _, q := range pt.B {
			hits, _ = tr.Search(q.MBR(), hits[:0])
			for _, id := range hits {
				if est.Pairs >= estimateMaxPairs {
					break
				}
				r, se, ok := montecarlo.EstimateRatio(rng, pt.A[id], q, estimateSamplesPerPair)
				if !ok || r == 0 {
					// No observed intersection: the exact kernel excludes
					// non-intersecting pairs from the average, so do we.
					continue
				}
				est.Pairs++
				est.Mean += r
				varSum += se * se
			}
		}
	}
	if est.Pairs > 0 {
		n := float64(est.Pairs)
		est.Mean /= n
		est.StdErr = math.Sqrt(varSum) / n
	}
	return est, nil
}

// pairSeed derives a deterministic RNG seed from the pair's dataset IDs.
func pairSeed(idA, idB string) int64 {
	h := fnv.New64a()
	h.Write([]byte(idA))
	h.Write([]byte{0})
	h.Write([]byte(idB))
	return int64(h.Sum64())
}
