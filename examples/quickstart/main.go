// Quickstart: generate one synthetic image tile segmented by two algorithm
// variants, cross-compare the two polygon sets three ways — exact sweep
// overlay, PixelBox-CPU, PixelBox on the simulated GPU — and show that all
// three agree exactly while differing wildly in cost.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/pathology"
	"repro/internal/pixelbox"
)

func main() {
	// One tile, two result sets (algorithm A vs algorithm B on the same
	// ground truth).
	rng := rand.New(rand.NewSource(2012))
	tile := pathology.GenerateTilePair(rng, "quickstart", 0, pathology.DefaultGenConfig())
	fmt.Printf("tile: %d polygons in set A, %d in set B\n", len(tile.A), len(tile.B))

	// Filter: every pair with intersecting MBRs.
	pairs, _, err := sccg.MatchPairs(tile.A, tile.B)
	if err != nil {
		panic(err)
	}
	fmt.Printf("filter: %d candidate pairs\n\n", len(pairs))

	// 1. Exact sweep overlay (the GEOS/SDBMS way).
	start := time.Now()
	exact := make([]sccg.AreaResult, len(pairs))
	for i, pr := range pairs {
		exact[i] = sccg.ExactAreas(pr.P, pr.Q)
	}
	sweepTime := time.Since(start)

	// 2. PixelBox-CPU.
	start = time.Now()
	cpu := pixelbox.RunCPU(pairs, pixelbox.CPUConfig{})
	cpuTime := time.Since(start)

	// 3. PixelBox on the simulated GTX 580.
	eng := sccg.NewEngine(sccg.Options{})
	gpuRes, err := eng.ComputeAreas(pairs)
	if err != nil {
		panic(err)
	}
	gpuTime := eng.Device().BusySeconds()

	// All three must agree bit-for-bit (paper §3.4: pixelization loses no
	// precision on rectilinear polygons).
	for i := range pairs {
		if cpu[i] != exact[i] || gpuRes[i] != exact[i] {
			panic(fmt.Sprintf("pair %d disagrees: sweep=%+v cpu=%+v gpu=%+v",
				i, exact[i], cpu[i], gpuRes[i]))
		}
	}
	fmt.Println("sweep, PixelBox-CPU and PixelBox(GPU) agree on every pair ✓")

	sim, hits, cands, err := eng.CrossComparePolygons(tile.A, tile.B)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nJaccard similarity J' = %.4f (%d intersecting of %d candidates)\n", sim, hits, cands)
	fmt.Printf("\nsweep overlay : %v\n", sweepTime)
	fmt.Printf("PixelBox-CPU  : %v\n", cpuTime)
	fmt.Printf("PixelBox(GPU) : %.3gs modelled device time\n", gpuTime)
}
