// Kernel tuning: explore PixelBox's two tuning knobs — thread-block size n
// and pixelization threshold T — on a concrete workload, printing the
// modelled device-time surface. Reproduces the methodology behind §3.4 and
// §5.4: good T lies in [n²/8, n²], and small blocks beat large ones.
package main

import (
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/experiments"
	"repro/internal/pathology"
	"repro/internal/pixelbox"
)

func main() {
	// A workload of pairs from a few tiles, scaled 3x to give the sampling
	// boxes something to do.
	rng := rand.New(rand.NewSource(42))
	var pairs []sccg.Pair
	for t := 0; t < 3; t++ {
		tp := pathology.GenerateTilePair(rng, "tuning", t, pathology.DefaultGenConfig())
		tilePairs, _, err := sccg.MatchPairs(tp.A, tp.B)
		if err != nil {
			panic(err)
		}
		pairs = append(pairs, tilePairs...)
	}
	pairs = experiments.ScalePairs(pairs, 3)
	fmt.Printf("workload: %d polygon pairs at scale factor 3\n\n", len(pairs))

	blockSizes := []int{32, 64, 128, 256}
	thresholds := []int{64, 256, 1024, 2048, 4096, 16384}

	fmt.Printf("%-8s", "n \\ T")
	for _, T := range thresholds {
		fmt.Printf("%9d", T)
	}
	fmt.Println("   (modelled device ms)")
	bestSecs := -1.0
	var bestN, bestT int
	for _, n := range blockSizes {
		fmt.Printf("%-8d", n)
		for _, T := range thresholds {
			secs := experiments.GPUSeconds(pairs, pixelbox.Config{BlockSize: n, Threshold: T})
			fmt.Printf("%9.3f", secs*1e3)
			if bestSecs < 0 || secs < bestSecs {
				bestSecs, bestN, bestT = secs, n, T
			}
		}
		fmt.Println()
	}
	fmt.Printf("\nbest: n=%d, T=%d (%.3fms)\n", bestN, bestT, bestSecs*1e3)
	fmt.Printf("paper's guidance: n small (64), T ≈ n²/2 = %d\n", bestN*bestN/2)
}
