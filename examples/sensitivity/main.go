// Sensitivity study: the workload that motivates the paper. A segmentation
// algorithm is re-run over the same image with a sweep of one parameter
// (here, the boundary-noise amplitude standing in for a sensitivity knob),
// and each output is cross-compared against the reference segmentation.
// The J' curve quantifies how sensitive the algorithm is to the parameter —
// exactly the "parameter sensitivity studies" of §1.
package main

import (
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/pathology"
)

func main() {
	base := pathology.DefaultGenConfig()
	const tiles = 4

	// Reference segmentation: the algorithm at its default parameters.
	reference := segment(base, 100)

	fmt.Println("parameter sweep: boundary-noise amplitude vs similarity to reference")
	fmt.Println()
	fmt.Println("noise   J'      intersecting  candidates")
	fmt.Println("-----   -----   ------------  ----------")
	for _, noise := range []float64{0.10, 0.18, 0.25, 0.35, 0.50, 0.70} {
		cfg := base
		cfg.Noise = noise
		variant := segment(cfg, 100)

		eng := sccg.NewEngine(sccg.Options{})
		var simSum float64
		var hitSum, candSum int
		for i := 0; i < tiles; i++ {
			sim, hits, cands, err := eng.CrossComparePolygons(reference[i], variant[i])
			if err != nil {
				panic(err)
			}
			simSum += sim
			hitSum += hits
			candSum += cands
		}
		fmt.Printf("%.2f    %.3f   %-12d  %d\n", noise, simSum/tiles, hitSum, candSum)
	}
	fmt.Println()
	fmt.Println("J' falls as the parameter drifts from the reference configuration;")
	fmt.Println("a steep drop marks a sensitive parameter (paper §1, §2.1).")
}

// segment runs the "algorithm" over the image's tiles with one parameter
// set. The generator's ground truth is seeded identically, so differences
// between runs come only from the parameters — the same property real
// re-segmentation has.
func segment(cfg pathology.GenConfig, seed int64) [][]*sccg.Polygon {
	const tiles = 4
	out := make([][]*sccg.Polygon, tiles)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < tiles; i++ {
		tp := pathology.GenerateTilePair(rng, "sens", i, cfg)
		out[i] = tp.A
	}
	return out
}
