package sccg_test

// The benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5). Each benchmark drives the corresponding
// internal/experiments reproduction and reports the headline quantity of the
// paper's presentation as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. cmd/bench prints the same experiments as full
// paper-style tables; EXPERIMENTS.md records paper-vs-measured values.

import (
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/montecarlo"
	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
)

// skipIfShort gates the long paper-reproduction benchmarks so -short runs
// (e.g. `go test -short -bench .` while iterating) stay fast.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("long benchmark: skipped in -short mode")
	}
}

// The algorithm experiments (§5.2-5.4) use a subset of pairs from a few
// representative tiles, as the paper uses 15724 pairs from two
// representative polygon files of oligoastroIII_1.
var (
	benchOnce    sync.Once
	benchDataset *pathology.Dataset
	benchSubset  []pixelbox.Pair
)

func benchSetup() (*pathology.Dataset, []pixelbox.Pair) {
	benchOnce.Do(func() {
		spec := pathology.Representative()
		benchDataset = pathology.Generate(spec)
		sub := *benchDataset
		sub.Pairs = benchDataset.Pairs[:3]
		benchSubset = experiments.FilteredPairs(&sub)
	})
	return benchDataset, benchSubset
}

// BenchmarkFig2QueryDecomposition regenerates Fig. 2: the SDBMS operator
// profile for both query forms. Reported metric: the optimised query's
// Area_Of_Intersection share (paper: ~90%).
func BenchmarkFig2QueryDecomposition(b *testing.B) {
	skipIfShort(b)
	d, _ := benchSetup()
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(d)
		if err != nil {
			b.Fatal(err)
		}
		p := res.Optimized.Profile
		share = float64(p.AreaOfIntersection) / float64(p.Total())
	}
	b.ReportMetric(share*100, "%intersection")
}

// BenchmarkFig7GEOSvsPixelBox regenerates Fig. 7 over every filtered pair
// of the representative dataset. Reported metrics: speedups over the GEOS
// baseline (paper: 1.48x for PixelBox-CPU-S, >100x for PixelBox).
func BenchmarkFig7GEOSvsPixelBox(b *testing.B) {
	skipIfShort(b)
	d, _ := benchSetup()
	var cpuS, gpuBox float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7(d)
		cpuS, gpuBox = res.Speedups()
	}
	b.ReportMetric(cpuS, "cpuS-x")
	b.ReportMetric(gpuBox, "pixelbox-x")
}

// BenchmarkFig8ScaleFactors regenerates Fig. 8: PixelOnly vs PixelBox-NoSep
// vs PixelBox over scale factors 1-5. Reported metric: PixelBox's speedup
// over PixelOnly at SF5 (the paper's box+indirect-union combination wins by
// a widening margin as polygons grow).
func BenchmarkFig8ScaleFactors(b *testing.B) {
	skipIfShort(b)
	_, pairs := benchSetup()
	var sf5 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(pairs, 5)
		last := rows[len(rows)-1]
		sf5 = last.PixelOnlySecs / last.PixelBoxSecs
	}
	b.ReportMetric(sf5, "sf5-gain-x")
}

// BenchmarkFig9Optimizations regenerates Fig. 9: the NoOpt/NBC/NBC-UR/
// NBC-UR-SM ladder at SF 1, 3, 5. Reported metrics: full-ladder speedups at
// SF1 and SF5 (paper: 1.14x and 1.30x).
func BenchmarkFig9Optimizations(b *testing.B) {
	skipIfShort(b)
	_, pairs := benchSetup()
	var sf1, sf5 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(pairs, []int{1, 3, 5})
		_, _, sf1 = rows[0].Speedups()
		_, _, sf5 = rows[2].Speedups()
	}
	b.ReportMetric(sf1, "sf1-x")
	b.ReportMetric(sf5, "sf5-x")
}

// BenchmarkFig10ThresholdSensitivity regenerates Fig. 10: device time vs
// pixelization threshold T at block size 64 for each scale factor. Reported
// metric: the best threshold at SF5 (paper: in [n²/8, n²] = [512, 4096]).
func BenchmarkFig10ThresholdSensitivity(b *testing.B) {
	skipIfShort(b)
	_, pairs := benchSetup()
	thresholds := []int{16, 64, 128, 512, 1024, 2048, 4096, 16384, 65536}
	var best float64
	for i := 0; i < b.N; i++ {
		series := experiments.Fig10(pairs, 64, thresholds, []int{1, 2, 3, 4, 5})
		best = float64(series[len(series)-1].Best().Threshold)
	}
	b.ReportMetric(best, "best-T-sf5")
}

// BenchmarkTable1PipelineSchemes regenerates Table 1: PostGIS-S vs
// NoPipe-S / NoPipe-M / Pipelined. Reported metrics: each scheme's speedup
// (paper: 37.07 / 63.64 / 76.02).
func BenchmarkTable1PipelineSchemes(b *testing.B) {
	skipIfShort(b)
	d, _ := benchSetup()
	var s, m, p float64
	for i := 0; i < b.N; i++ {
		cal := experiments.Calibrate(d)
		res, err := experiments.Table1(d, cal)
		if err != nil {
			b.Fatal(err)
		}
		s, m, p = res.Speedups()
	}
	b.ReportMetric(s, "nopipe-s-x")
	b.ReportMetric(m, "nopipe-m-x")
	b.ReportMetric(p, "pipelined-x")
}

// BenchmarkFig11TaskMigration regenerates Fig. 11: task-migration benefit
// on the three platform configurations. Reported metrics: normalised
// throughput per configuration (paper: ~1.5 / ~1.4 / ~1.14).
func BenchmarkFig11TaskMigration(b *testing.B) {
	skipIfShort(b)
	d, _ := benchSetup()
	var c1, c2, c3 float64
	for i := 0; i < b.N; i++ {
		cal := experiments.Calibrate(d)
		rows, err := experiments.Fig11(cal)
		if err != nil {
			b.Fatal(err)
		}
		c1, c2, c3 = rows[0].NormThroughput, rows[1].NormThroughput, rows[2].NormThroughput
	}
	b.ReportMetric(c1, "config-I")
	b.ReportMetric(c2, "config-II")
	b.ReportMetric(c3, "config-III")
}

// BenchmarkFig12AllDatasets regenerates Fig. 12: SCCG vs PostGIS-M over the
// full 18-dataset corpus. Reported metric: the geometric-mean speedup
// (paper: >18x, range 13-44x).
func BenchmarkFig12AllDatasets(b *testing.B) {
	skipIfShort(b)
	var gm float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(pathology.Corpus())
		if err != nil {
			b.Fatal(err)
		}
		gm = experiments.Fig12GeoMean(rows)
	}
	b.ReportMetric(gm, "geomean-x")
}

// BenchmarkPixelBoxKernel measures the raw per-pair cost of the fully
// optimised GPU kernel (host execution + cost model) — the library's hot
// path.
func BenchmarkPixelBoxKernel(b *testing.B) {
	_, pairs := benchSetup()
	cfg := pixelbox.Config{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.GPUSeconds(pairs, cfg)
	}
	b.ReportMetric(float64(len(pairs)), "pairs")
}

// BenchmarkPixelBoxCPU measures the single-core CPU port per workload pass at
// scale factors 1, 3 and 5, over polygons that carry band tables (as the store
// serves them; built outside the timer) and over polygons that do not (as
// NewPolygon and Scale make them). A band walk costs bands and crossings, and
// scaling a polygon changes neither, so the time per pass should not grow
// with the scale factor.
func BenchmarkPixelBoxCPU(b *testing.B) {
	_, base := benchSetup()
	for _, sf := range []int32{1, 3, 5} {
		plain := experiments.ScalePairs(base, sf)
		for _, bc := range []struct {
			name  string
			pairs []pixelbox.Pair
		}{{"tables", experiments.TabledPairs(plain)}, {"none", plain}} {
			b.Run(fmt.Sprintf("SF%d/%s", sf, bc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pixelbox.RunCPU(bc.pairs, pixelbox.CPUConfig{})
				}
			})
		}
	}
}

// BenchmarkSweepOverlay measures the GEOS-equivalent baseline per workload
// pass (with the SDBMS calling convention).
func BenchmarkSweepOverlay(b *testing.B) {
	_, pairs := benchSetup()
	encoded := experiments.EncodePairs(pairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.SweepAreas(encoded)
	}
}

// BenchmarkHybridVsGPUOnly measures the hybrid co-executing aggregator
// against the single-GPU pipeline on the representative dataset: 2 simulated
// GPUs plus 4 PixelBox-CPU executors stealing from the shared pair buffer
// versus 1 GPU alone. Reported metric: the wall-clock speedup (on a CPU-rich
// host the hybrid configuration must be >= 1x; the similarity is
// bit-identical by construction and asserted here).
func BenchmarkHybridVsGPUOnly(b *testing.B) {
	skipIfShort(b)
	d, _ := benchSetup()
	tasks := sccg.EncodeDataset(d)
	var speedup float64
	for i := 0; i < b.N; i++ {
		gpuOnly, err := pipeline.Run(tasks, pipeline.Config{Devices: gpu.NewDevices(1, gpu.GTX580())})
		if err != nil {
			b.Fatal(err)
		}
		hybrid, err := pipeline.Run(tasks, pipeline.Config{
			Devices:        gpu.NewDevices(2, gpu.GTX580()),
			CPUAggregators: 4,
			BatchPairs:     256,
		})
		if err != nil {
			b.Fatal(err)
		}
		if hybrid.Similarity != gpuOnly.Similarity {
			b.Fatalf("hybrid similarity %.17g != gpu-only %.17g", hybrid.Similarity, gpuOnly.Similarity)
		}
		speedup = gpuOnly.Stats.WallTime.Seconds() / hybrid.Stats.WallTime.Seconds()
	}
	b.ReportMetric(speedup, "hybrid-speedup-x")
}

// BenchmarkMonteCarloVsPixelBox is the §6 ablation: modelled device time of
// the Monte Carlo estimator (at a sample budget roughly matching the mean
// pair pixel count) vs the exact PixelBox kernel. Reported metric: the cost
// ratio (paper: "repeated casting of random sampling points makes Monte
// Carlo much more compute-intensive than our optimized PixelBox").
func BenchmarkMonteCarloVsPixelBox(b *testing.B) {
	skipIfShort(b)
	_, pairs := benchSetup()
	var ratio float64
	for i := 0; i < b.N; i++ {
		devMC := gpu.NewDevice(gpu.GTX580())
		// 4096 samples/pair still only reaches ~1.5% relative error on a
		// 150-pixel object, far from PixelBox's exactness.
		_, mc := montecarlo.RunGPU(devMC, pairs, 4096, 64, 1)
		pb := experiments.GPUSeconds(pairs, pixelbox.Config{})
		ratio = mc.DeviceSeconds / pb
	}
	b.ReportMetric(ratio, "mc/pixelbox-x")
}
