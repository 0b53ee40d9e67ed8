// Multi-algorithm consolidation: cross-compare k segmentation algorithms
// pairwise over the same image and print the similarity matrix — the
// "algorithm validation and consolidation" workflow of §1, where many
// result sets from different algorithms (or parameterisations) must be
// compared with each other.
package main

import (
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/pathology"
)

func main() {
	const tiles = 3
	algorithms := []struct {
		name string
		cfg  func(pathology.GenConfig) pathology.GenConfig
	}{
		{"baseline", func(c pathology.GenConfig) pathology.GenConfig { return c }},
		{"low-noise", func(c pathology.GenConfig) pathology.GenConfig { c.Noise = 0.12; return c }},
		{"hi-noise", func(c pathology.GenConfig) pathology.GenConfig { c.Noise = 0.45; return c }},
		{"dilated", func(c pathology.GenConfig) pathology.GenConfig { c.MeanRadius *= 1.15; return c }},
	}

	// Segment the same image (same seed => same ground truth) with each
	// algorithm.
	results := make([][][]*sccg.Polygon, len(algorithms))
	for ai, alg := range algorithms {
		cfg := alg.cfg(pathology.DefaultGenConfig())
		rng := rand.New(rand.NewSource(7))
		results[ai] = make([][]*sccg.Polygon, tiles)
		for t := 0; t < tiles; t++ {
			tp := pathology.GenerateTilePair(rng, "multi", t, cfg)
			results[ai][t] = tp.A
		}
	}

	eng := sccg.NewEngine(sccg.Options{})
	fmt.Println("pairwise J' similarity matrix:")
	fmt.Println()
	fmt.Printf("%-10s", "")
	for _, alg := range algorithms {
		fmt.Printf("%-10s", alg.name)
	}
	fmt.Println()
	for i := range algorithms {
		fmt.Printf("%-10s", algorithms[i].name)
		for j := range algorithms {
			if j < i {
				fmt.Printf("%-10s", "·")
				continue
			}
			var sum float64
			for t := 0; t < tiles; t++ {
				sim, _, _, err := eng.CrossComparePolygons(results[i][t], results[j][t])
				if err != nil {
					panic(err)
				}
				sum += sim
			}
			fmt.Printf("%-10.3f", sum/tiles)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Printf("device busy: %.4gs modelled over %d launches\n",
		eng.Device().BusySeconds(), eng.Device().Launches())
	fmt.Println("\nhigh off-diagonal J' marks algorithms that consolidate well;")
	fmt.Println("the diagonal is 1 by construction (an algorithm vs itself).")
}
