// Example crossmatrix exercises the cross-dataset comparison subsystem end
// to end, in process: generate three variant segmentations of the same
// slide (same tile keys, increasingly perturbed polygons), ingest them into
// a persistent store, run one pairwise cross job through the facade, then a
// 3-way similarity matrix run, and print the symmetric matrix. A second
// matrix over the same datasets demonstrates every cell answering from the
// result cache.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crossmatrix: ")

	dir, err := os.MkdirTemp("", "crossmatrix-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := sccg.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	svc := sccg.NewService(sccg.ServiceOptions{Devices: 2, HybridCPU: true, Store: st})
	defer svc.Close()

	// Three segmentation runs over the same slide: identical tile keys
	// (image name and tile indexes), different algorithm behaviour modelled
	// as growing jitter. Content addressing gives each a distinct ID.
	base := sccg.Representative()
	base.Tiles = 4
	var ids []string
	for i, jitter := range []float64{0.00, 0.02, 0.06} {
		spec := base
		spec.Seed = base.Seed // same ground truth every run
		spec.Gen.JitterRadius = jitter
		man, err := sccg.IngestDataset(st, sccg.GenerateDataset(spec))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("algorithm %d -> dataset %s (%d tiles, %d polygons)\n",
			i+1, man.ID[:12], len(man.Tiles), man.Polygons)
		ids = append(ids, man.ID)
	}

	// One pairwise cross job: algorithm 1's result set A vs algorithm 3's
	// result set B, tile by tile.
	jobID, match, err := svc.CompareStored(ids[0], ids[2])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cross job %s over %d matched tiles (%d/%d unmatched)\n",
		jobID, len(match.Pairs), len(match.OnlyA), len(match.OnlyB))
	for {
		js, ok := svc.Job(jobID)
		if !ok {
			log.Fatal("cross job vanished")
		}
		if js.State.Terminal() {
			fmt.Printf("cross similarity %.4f (%d intersecting pairs)\n",
				js.Report.Similarity, js.Report.Intersecting)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	runMatrix := func() sccg.MatrixStatus {
		mxID, err := svc.SubmitMatrix(ids)
		if err != nil {
			log.Fatal(err)
		}
		// Each WaitMatrix returns at the run's next change; pass its version
		// back until the run is terminal.
		var since int64
		for {
			mst, ok := svc.WaitMatrix(context.Background(), mxID, since)
			if !ok {
				log.Fatal("matrix run vanished")
			}
			if mst.State != "running" {
				return mst
			}
			since = mst.Version
		}
	}

	mst := runMatrix()
	fmt.Printf("matrix %s finished %s: %d/%d cells terminal, %d exact\n",
		mst.ID, mst.State, mst.TerminalCells, mst.PlannedCells, mst.ExactCells)
	printMatrix(mst)

	again := runMatrix()
	cached := 0
	for i := range again.Cells {
		for j := range again.Cells[i] {
			if i != j && again.Cells[i][j].Cached {
				cached++
			}
		}
	}
	fmt.Printf("repeat matrix %s: %d/%d cells served from cache\n",
		again.ID, cached/2, again.PlannedCells)
}

func printMatrix(mst sccg.MatrixStatus) {
	fmt.Print("        ")
	for j := range mst.Datasets {
		fmt.Printf("  algo%d", j+1)
	}
	fmt.Println()
	for i := range mst.Cells {
		fmt.Printf("  algo%d ", i+1)
		for j, c := range mst.Cells[i] {
			if i == j {
				fmt.Print("      -")
				continue
			}
			fmt.Printf(" %.4f", c.Similarity)
		}
		fmt.Println()
	}
}
