// Command datagen materialises the synthetic pathology corpus as polygon
// text files on disk, two files per image tile (one per segmentation result
// set), in the directory layout the paper describes (§2.1): a group of
// polygon files per whole image, one file per tile. Beside the tiles,
// dataset.json holds the same tiles as the body sccgd's PUT /datasets takes
// (a JSON array of {image, tile, raw_a, raw_b}, raw_* base64 polygon text),
// which is how a dataset gets into the daemon:
//
//	datagen -out ./data            # all 18 datasets
//	datagen -out ./data -dataset 5 # just the representative dataset
//	curl -X PUT 'localhost:8080/datasets?name=oligoastroIII_1' \
//	     --data-binary @data/oligoastroIII_1/dataset.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/pathology"
)

// putTile is one element of a PUT /datasets body.
type putTile struct {
	Image string `json:"image"`
	Tile  int    `json:"tile"`
	RawA  []byte `json:"raw_a"`
	RawB  []byte `json:"raw_b"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")

	var (
		out     = flag.String("out", "data", "output directory")
		dataset = flag.Int("dataset", -1, "single dataset index (default: all)")
	)
	flag.Parse()

	specs := sccg.Corpus()
	if *dataset >= 0 {
		if *dataset >= len(specs) {
			log.Fatalf("dataset index %d out of range", *dataset)
		}
		specs = specs[*dataset : *dataset+1]
	}

	var totalBytes int64
	var totalPolys int
	for _, spec := range specs {
		d := pathology.Generate(spec)
		dir := filepath.Join(*out, spec.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		tasks := sccg.EncodeDataset(d)
		body := make([]putTile, len(tasks))
		for i, task := range tasks {
			for set, data := range map[string][]byte{"1": task.RawA, "2": task.RawB} {
				name := filepath.Join(dir, fmt.Sprintf("tile_%04d_alg%s.poly", task.Tile, set))
				if err := os.WriteFile(name, data, 0o644); err != nil {
					log.Fatal(err)
				}
				totalBytes += int64(len(data))
			}
			body[i] = putTile{Image: task.Image, Tile: task.Tile, RawA: task.RawA, RawB: task.RawB}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "dataset.json"), raw, 0o644); err != nil {
			log.Fatal(err)
		}
		a, b := d.NumPolygons()
		totalPolys += a + b
		fmt.Printf("%-18s %3d tiles  %6d + %6d polygons\n", spec.Name, spec.Tiles, a, b)
	}
	fmt.Printf("wrote %d polygons, %.1f MiB under %s\n",
		totalPolys, float64(totalBytes)/(1<<20), *out)
}
