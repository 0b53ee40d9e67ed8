// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), shared by cmd/bench and the repository's
// benchmark suite. Each driver returns a structured report whose rows mirror
// the paper's presentation; EXPERIMENTS.md records paper-vs-measured values.
//
// Time bases: CPU-side baselines (GEOS-style overlay, PixelBox-CPU, the
// mini-SDBMS) are measured wall-clock on the host; GPU numbers are modelled
// device seconds from the simulator; system-level schemes run on the
// discrete-event model with service times calibrated from both (DESIGN.md
// §1 documents the substitutions).
package experiments

import (
	"time"

	"repro/internal/geom"
	"repro/internal/geomtest"
	"repro/internal/gpu"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pipesim"
	"repro/internal/pixelbox"
	"repro/internal/rtree"
	"repro/internal/sdbms"
	"repro/internal/wkb"
)

// FilteredPairs runs the filter path (index build + MBR join) over a
// dataset and returns the polygon-pair array, the unit of work for the
// algorithm experiments.
func FilteredPairs(d *pathology.Dataset) []pixelbox.Pair {
	var pairs []pixelbox.Pair
	for _, tp := range d.Pairs {
		pairs = append(pairs, tilePairs(tp)...)
	}
	return pairs
}

func tilePairs(tp pathology.TilePair) []pixelbox.Pair {
	joined, _ := rtree.Join(rtree.Index(tp.A), rtree.Index(tp.B), nil)
	pairs := make([]pixelbox.Pair, len(joined))
	for i, pr := range joined {
		pairs[i] = pixelbox.Pair{P: tp.A[pr.A], Q: tp.B[pr.B]}
	}
	return pairs
}

// ScalePairs scales every polygon's coordinates by factor, the paper's
// §5.2 stress methodology ("increase the polygon sizes by multiplying the
// coordinates of polygon vertices with a scale factor").
func ScalePairs(pairs []pixelbox.Pair, factor int32) []pixelbox.Pair {
	if factor == 1 {
		return pairs
	}
	out := make([]pixelbox.Pair, len(pairs))
	for i, pr := range pairs {
		out[i] = pixelbox.Pair{P: pr.P.Scale(factor), Q: pr.Q.Scale(factor)}
	}
	return out
}

// TabledPairs returns the same pairs over copies of the polygons that carry
// band tables and row masks, as polygons read through the store do.
func TabledPairs(pairs []pixelbox.Pair) []pixelbox.Pair {
	polys := make([]*geom.Polygon, 0, 2*len(pairs))
	for _, pr := range pairs {
		polys = append(polys, pr.P, pr.Q)
	}
	polys = geomtest.WithBands(polys...)
	out := make([]pixelbox.Pair, len(pairs))
	for i := range out {
		out[i] = pixelbox.Pair{P: polys[2*i], Q: polys[2*i+1]}
	}
	return out
}

// EncodedPair is a polygon pair in the SDBMS's serialized form.
type EncodedPair struct {
	P, Q []byte
}

// EncodePairs serializes pairs to WKB (done outside any timed region: the
// data sits in that form inside the database).
func EncodePairs(pairs []pixelbox.Pair) []EncodedPair {
	out := make([]EncodedPair, len(pairs))
	for i, pr := range pairs {
		out[i] = EncodedPair{P: wkb.Marshal(pr.P), Q: wkb.Marshal(pr.Q)}
	}
	return out
}

// SweepAreas computes areas for all pairs exactly as the optimised SDBMS
// query does per tuple: ST_Area(ST_Intersection(a,b)) plus two ST_Area
// calls, each deserializing its arguments per the PostGIS calling
// convention. It is the single-core GEOS baseline of Fig. 7.
func SweepAreas(encoded []EncodedPair) []pixelbox.AreaResult {
	out := make([]pixelbox.AreaResult, len(encoded))
	for i, pr := range encoded {
		inter, err := sdbms.STAreaOfIntersection(pr.P, pr.Q)
		if err != nil {
			panic(err)
		}
		areaP, err := sdbms.STArea(pr.P)
		if err != nil {
			panic(err)
		}
		areaQ, err := sdbms.STArea(pr.Q)
		if err != nil {
			panic(err)
		}
		out[i] = pixelbox.AreaResult{
			Intersection: inter,
			Union:        areaP + areaQ - inter,
		}
	}
	return out
}

// ReplicateTiles repeats a calibrated tile-cost workload n times, restoring
// the paper-scale tile counts (hundreds per dataset) that the ~50x-scaled
// synthetic corpus shrinks; steady-state pipeline behaviour needs the longer
// streams.
func ReplicateTiles(tiles []pipesim.TileCost, n int) []pipesim.TileCost {
	out := make([]pipesim.TileCost, 0, len(tiles)*n)
	for i := 0; i < n; i++ {
		out = append(out, tiles...)
	}
	return out
}

// GPUSeconds runs a PixelBox variant over pairs on a fresh simulated GTX
// 580 and returns the modelled device time including transfers.
func GPUSeconds(pairs []pixelbox.Pair, cfg pixelbox.Config) float64 {
	dev := gpu.NewDevice(gpu.GTX580())
	_, launch, xfer := pixelbox.RunGPU(dev, pairs, cfg)
	return launch.DeviceSeconds + xfer
}

// Calibration carries the per-tile service times feeding the system-level
// simulations, plus aggregate host throughput numbers.
type Calibration struct {
	Tiles []pipesim.TileCost
	// ParseBytesPerSec is the measured single-core parser throughput.
	ParseBytesPerSec float64
	// TotalPairs across all tiles.
	TotalPairs int
}

// measure runs f three times and returns the minimum wall-clock seconds,
// suppressing scheduling noise in sub-millisecond service-time calibration.
func measure(f func()) float64 {
	best := -1.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start).Seconds(); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// Calibrate measures the per-tile pipeline service times for a dataset:
// parse/build/filter and the paper's PixelBox-CPU port (LiteralCPU)
// wall-clock on the host core, PixelBox device time from the simulator, and
// GPU-Parser time at parity with a 4-worker CPU parser stage (the paper's
// comparability finding).
func Calibrate(d *pathology.Dataset) Calibration {
	var cal Calibration
	var totalBytes int64
	var totalParse float64
	var allPairs []pixelbox.Pair
	for _, tp := range d.Pairs {
		rawA := parser.Encode(tp.A)
		rawB := parser.Encode(tp.B)

		var pa, pb []*geom.Polygon
		parseSec := measure(func() {
			pa, _ = parser.Parse(rawA)
			pb, _ = parser.Parse(rawB)
		})

		var ta, tb *rtree.Tree
		buildSec := measure(func() {
			ta, tb = rtree.Index(pa), rtree.Index(pb)
		})

		var joined []rtree.Pair
		filterSec := measure(func() {
			joined, _ = rtree.Join(ta, tb, nil)
		})

		pairs := make([]pixelbox.Pair, len(joined))
		for i, pr := range joined {
			pairs[i] = pixelbox.Pair{P: pa[pr.A], Q: pb[pr.B]}
		}
		allPairs = append(allPairs, pairs...)

		cpuSec := measure(func() {
			LiteralCPU(pairs)
		})

		cal.Tiles = append(cal.Tiles, pipesim.TileCost{
			ParseSec:    parseSec,
			BuildSec:    buildSec,
			FilterSec:   filterSec,
			CPUAggSec:   cpuSec,
			GPUParseSec: parseSec / 4,
			Pairs:       len(pairs),
		})
		cal.TotalPairs += len(pairs)
		totalBytes += int64(len(rawA) + len(rawB))
		totalParse += parseSec
	}
	if totalParse > 0 {
		cal.ParseBytesPerSec = float64(totalBytes) / totalParse
	}
	// GPU aggregation is calibrated at batch scale — the pipelined
	// aggregator launches batches of many tiles, which run at much better
	// occupancy than a per-tile launch would — and apportioned back to
	// tiles by pair count.
	dev := gpu.NewDevice(gpu.GTX580())
	_, launch, _ := pixelbox.RunGPU(dev, allPairs, pixelbox.Config{})
	batchSec := launch.DeviceSeconds - gpu.GTX580().LaunchOverhead
	if batchSec < 0 {
		batchSec = 0
	}
	if cal.TotalPairs > 0 {
		perPair := batchSec / float64(cal.TotalPairs)
		for i := range cal.Tiles {
			cal.Tiles[i].GPUAggSec = perPair * float64(cal.Tiles[i].Pairs)
		}
	}
	return cal
}
