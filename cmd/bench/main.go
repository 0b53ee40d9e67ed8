// Command bench regenerates every table and figure of the paper's
// evaluation section (§5) and prints the rows in the paper's layout.
// EXPERIMENTS.md records the paper-reported values next to a captured run
// of this tool.
//
//	bench                 # everything
//	bench -only fig8      # a single experiment (fig2|fig7|fig8|fig9|fig10|table1|fig11|fig12|hybrid)
//	bench -only hybrid -gpus 2 -cpu-aggs 4   # hybrid co-execution scaling
//
// These are the paper's tables, not the repo's performance record: that is
// benchmark/ (see BENCHMARK.json), which drives real sccgd daemons.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	only := flag.String("only", "", "run a single experiment")
	gpus := flag.Int("gpus", 2, "hybrid experiment: simulated GPU count")
	cpuAggs := flag.Int("cpu-aggs", 4, "hybrid experiment: PixelBox-CPU aggregator count")
	flag.Parse()

	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}

	rep := pathology.Generate(pathology.Representative())
	// The subset workload of §5.2-5.4: pairs filtered from two
	// representative tiles (the paper uses 15724 pairs from two
	// representative polygon files).
	subsetPairs := subset(rep, 3)

	if want("fig2") {
		runFig2(rep)
	}
	if want("fig7") {
		runFig7(rep)
	}
	if want("fig8") {
		runFig8(subsetPairs)
	}
	if want("fig9") {
		runFig9(subsetPairs)
	}
	if want("fig10") {
		runFig10(subsetPairs)
	}
	var cal experiments.Calibration
	if want("table1") || want("fig11") {
		cal = experiments.Calibrate(rep)
	}
	if want("table1") {
		runTable1(rep, cal)
	}
	if want("fig11") {
		runFig11(cal)
	}
	if want("fig12") {
		runFig12()
	}
	if want("hybrid") {
		runHybrid(rep, *gpus, *cpuAggs)
	}
}

func subset(d *pathology.Dataset, tiles int) []pixelbox.Pair {
	if tiles > len(d.Pairs) {
		tiles = len(d.Pairs)
	}
	sub := *d
	sub.Pairs = d.Pairs[:tiles]
	return experiments.FilteredPairs(&sub)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func runFig2(d *pathology.Dataset) {
	header("Fig. 2 — SDBMS query-time decomposition (single core)")
	res, err := experiments.Fig2(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Println("\npaper: unoptimized splits across ST_Intersects/intersection/union;")
	fmt.Println("       optimized spends ~90% in Area_Of_Intersection, <6% in index work")
}

func runFig7(d *pathology.Dataset) {
	header("Fig. 7 — GEOS vs PixelBox-CPU-S vs PixelBox")
	res := experiments.Fig7(d)
	cpuS, gpuBox := res.Speedups()
	t := experiments.NewTable("system", "time", "speedup over GEOS")
	t.AddRow("GEOS (sweep overlay)", fmt.Sprintf("%.3fs", res.GEOSSecs), 1.0)
	t.AddRow("PixelBox-CPU-S", fmt.Sprintf("%.3fs", res.PixelBoxCPUSSecs), cpuS)
	t.AddRow("PixelBox (GTX 580 model)", fmt.Sprintf("%.6fs", res.PixelBoxSecs), gpuBox)
	fmt.Print(t.String())
	fmt.Printf("\n%d polygon pairs; paper: 430s / ~290s / 3.6s (1.48x / >100x)\n", res.Pairs)
}

func runFig8(pairs []pixelbox.Pair) {
	header("Fig. 8 — sampling boxes and indirect union vs pixelization only")
	rows := experiments.Fig8(pairs, 5)
	t := experiments.NewTable("SF", "PixelOnly", "PixelBox-NoSep", "PixelBox", "GEOS ref")
	for _, r := range rows {
		t.AddRow(r.ScaleFactor,
			fmt.Sprintf("%.2fms", r.PixelOnlySecs*1e3),
			fmt.Sprintf("%.2fms", r.NoSepSecs*1e3),
			fmt.Sprintf("%.2fms", r.PixelBoxSecs*1e3),
			fmt.Sprintf("%.1fms", r.SweepSecs*1e3))
	}
	fmt.Print(t.String())
	fmt.Println("\npaper: PixelOnly degrades rapidly with SF; PixelBox stays nearly flat;")
	fmt.Println("       at SF1 boxes already cut ~34%, at SF5 PixelBox beats NoSep by ~73%")
}

func runFig9(pairs []pixelbox.Pair) {
	header("Fig. 9 — implementation optimisation ladder (speedup over NoOpt)")
	rows := experiments.Fig9(pairs, []int{1, 3, 5})
	t := experiments.NewTable("SF", "NoOpt", "NBC", "NBC-UR", "NBC-UR-SM")
	for _, r := range rows {
		nbc, nbcur, nbcursm := r.Speedups()
		t.AddRow(r.ScaleFactor, 1.0, nbc, nbcur, nbcursm)
	}
	fmt.Print(t.String())
	fmt.Println("\npaper: 1.14x total at SF1 rising to 1.30x at SF5; UR and SM dominate NBC")
}

func runFig10(pairs []pixelbox.Pair) {
	header("Fig. 10 — sensitivity to pixelization threshold T (block size 64)")
	thresholds := []int{16, 64, 128, 512, 1024, 2048, 4096, 16384, 65536}
	series := experiments.Fig10(pairs, 64, thresholds, []int{1, 2, 3, 4, 5})
	head := []string{"SF \\ T"}
	for _, T := range thresholds {
		head = append(head, fmt.Sprintf("%d", T))
	}
	t := experiments.NewTable(head...)
	for _, s := range series {
		row := []interface{}{s.ScaleFactor}
		for _, p := range s.Points {
			row = append(row, fmt.Sprintf("%.2f", p.Secs*1e3))
		}
		t.AddRow(row...)
	}
	fmt.Print(t.String())
	for _, s := range series {
		b := s.Best()
		fmt.Printf("SF%d best: T=%d (%.2fms)\n", s.ScaleFactor, b.Threshold, b.Secs*1e3)
	}
	fmt.Println("\npaper: best T in [n²/8, n²] = [512, 4096] for n=64, sub-optimal at the extremes")
}

func runTable1(d *pathology.Dataset, cal experiments.Calibration) {
	header("Table 1 — execution schemes (speedup over PostGIS-S)")
	res, err := experiments.Table1(d, cal)
	if err != nil {
		log.Fatal(err)
	}
	s, m, p := res.Speedups()
	t := experiments.NewTable("scheme", "time", "speedup")
	t.AddRow("PostGIS-S", fmt.Sprintf("%.3fs", res.PostGISSecs), 1.0)
	t.AddRow("NoPipe-S", fmt.Sprintf("%.3fs", res.NoPipeS.Seconds), s)
	t.AddRow("NoPipe-M", fmt.Sprintf("%.3fs", res.NoPipeM.Seconds), m)
	t.AddRow("Pipelined", fmt.Sprintf("%.3fs", res.Pipelined.Seconds), p)
	fmt.Print(t.String())
	fmt.Printf("\nNoPipe-M CPU utilisation: %.0f%% (paper: ~50%%, capped by uncoordinated GPU use)\n",
		res.NoPipeM.CPUUtilisation*100)
	fmt.Println("paper speedups: 1 / 37.07 / 63.64 / 76.02")
}

func runFig11(cal experiments.Calibration) {
	header("Fig. 11 — dynamic task migration benefit")
	rows, err := experiments.Fig11(cal)
	if err != nil {
		log.Fatal(err)
	}
	t := experiments.NewTable("configuration", "norm. throughput", "to GPU", "to CPU")
	for _, r := range rows {
		t.AddRow(r.Config, r.NormThroughput, r.On.MigratedToGPU, r.On.MigratedToCPU)
	}
	fmt.Print(t.String())
	fmt.Println("\npaper: +50% (Config-I), +40% (Config-II), +14% (Config-III, reversed direction)")
}

// runHybrid is the post-paper experiment for the hybrid co-executing
// aggregator: the same dataset aggregated GPU-only, CPU-only, and on the
// hybrid executor pool. Similarity must be bit-identical across all three;
// only throughput moves.
func runHybrid(d *pathology.Dataset, gpus, cpuAggs int) {
	header(fmt.Sprintf("Hybrid co-execution — %d GPU(s) + %d CPU aggregator(s), work-stealing", gpus, cpuAggs))
	tasks := sccg.EncodeDataset(d)

	devices := func(n int) []*gpu.Device { return gpu.NewDevices(n, gpu.GTX580()) }
	configs := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"GPU-only (1 device)", pipeline.Config{Devices: devices(1)}},
		{"CPU-only", pipeline.Config{}},
		{fmt.Sprintf("hybrid (%dG+%dC)", gpus, cpuAggs),
			pipeline.Config{Devices: devices(gpus), CPUAggregators: cpuAggs, BatchPairs: 256}},
	}

	t := experiments.NewTable("configuration", "wall", "pairs/s", "pairs GPU", "pairs CPU", "J'")
	var base, hybridSecs float64
	var baseSim float64
	identical := true
	for i, c := range configs {
		res, err := pipeline.Run(tasks, c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		secs := res.Stats.WallTime.Seconds()
		if i == 0 {
			base, baseSim = secs, res.Similarity
		} else if res.Similarity != baseSim {
			identical = false
		}
		if i == len(configs)-1 {
			hybridSecs = secs
		}
		t.AddRow(c.name, res.Stats.WallTime.Round(time.Microsecond),
			float64(res.Stats.PairsFiltered)/secs,
			res.Stats.PairsOnGPU, res.Stats.PairsOnCPU,
			fmt.Sprintf("%.6f", res.Similarity))
	}
	fmt.Print(t.String())
	fmt.Printf("\nhybrid speedup over GPU-only: %.2fx; similarity bit-identical: %v\n",
		experiments.Speedup(base, hybridSecs), identical)
}

func runFig12() {
	header("Fig. 12 — SCCG vs PostGIS-M over the 18-dataset corpus")
	rows, err := experiments.Fig12(pathology.Corpus())
	if err != nil {
		log.Fatal(err)
	}
	t := experiments.NewTable("dataset", "tiles", "pairs", "PostGIS-M", "SCCG", "speedup", "J'")
	for _, r := range rows {
		t.AddRow(r.Dataset, r.Tiles, r.Pairs,
			fmt.Sprintf("%.3fs", r.PostGISMSecs),
			fmt.Sprintf("%.3fs", r.SCCGSecs),
			r.Speedup,
			fmt.Sprintf("%.3f", r.Similarity))
	}
	fmt.Print(t.String())
	fmt.Printf("\ngeometric mean speedup: %.1fx (paper: >18x, range 13-44x)\n", experiments.Fig12GeoMean(rows))
}
