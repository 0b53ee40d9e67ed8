package montecarlo_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/clip"
	"repro/internal/geom"
	"repro/internal/geomtest"
	"repro/internal/gpu"
	"repro/internal/montecarlo"
	"repro/internal/pixelbox"
)

func TestEstimateConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := geom.Rect(0, 0, 40, 40)
	q := geom.Rect(20, 0, 60, 40) // intersection 800, union 2400
	est := montecarlo.Estimate(rng, p, q, 200000)
	if relErr(est.Intersection, 800) > 0.05 {
		t.Fatalf("intersection estimate %d too far from 800", est.Intersection)
	}
	if relErr(est.Union, 2400) > 0.05 {
		t.Fatalf("union estimate %d too far from 2400", est.Union)
	}
}

func TestEstimateIsOnlyApproximate(t *testing.T) {
	// With few samples, estimates deviate — the reason Monte Carlo cannot
	// replace PixelBox for a metric defined on exact areas.
	rng := rand.New(rand.NewSource(9))
	var maxErr float64
	for trial := 0; trial < 30; {
		p := geomtest.RandomPolygon(rng, 24)
		q := geomtest.RandomPolygon(rng, 24)
		if p == nil || q == nil {
			continue
		}
		trial++
		exact := clip.IntersectionArea(p, q)
		est := montecarlo.Estimate(rng, p, q, 64)
		if exact > 0 {
			if e := relErr(est.Intersection, exact); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr == 0 {
		t.Fatal("64-sample Monte Carlo was exact over 30 random pairs; estimator is suspect")
	}
}

func TestEstimateAllDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pairs []pixelbox.Pair
	for len(pairs) < 10 {
		p := geomtest.RandomPolygon(rng, 20)
		q := geomtest.RandomPolygon(rng, 20)
		if p == nil || q == nil {
			continue
		}
		pairs = append(pairs, pixelbox.Pair{P: p, Q: q})
	}
	a := montecarlo.EstimateAll(42, pairs, 500)
	b := montecarlo.EstimateAll(42, pairs, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("estimates not deterministic for a fixed seed")
		}
	}
}

func TestRunGPUMoreExpensiveThanPixelBox(t *testing.T) {
	// The §6 claim: at a sample budget comparable to the pixel count,
	// Monte Carlo costs more device time than the optimised PixelBox.
	rng := rand.New(rand.NewSource(11))
	var pairs []pixelbox.Pair
	for len(pairs) < 30 {
		p := geomtest.RandomPolygon(rng, 24)
		q := geomtest.RandomPolygon(rng, 24)
		if p == nil || q == nil {
			continue
		}
		pairs = append(pairs, pixelbox.Pair{P: p, Q: q})
	}
	devMC := gpu.NewDevice(gpu.GTX580())
	_, mc := montecarlo.RunGPU(devMC, pairs, 1024, 64, 1)
	devPB := gpu.NewDevice(gpu.GTX580())
	_, pb, _ := pixelbox.RunGPU(devPB, pairs, pixelbox.Config{})
	if mc.DeviceSeconds <= pb.DeviceSeconds {
		t.Fatalf("Monte Carlo (%v) not costlier than PixelBox (%v)", mc.DeviceSeconds, pb.DeviceSeconds)
	}
}

func TestEmptyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := geom.Rect(0, 0, 2, 2)
	q := geom.Rect(10, 10, 12, 12)
	if est := montecarlo.Estimate(rng, p, q, 0); est != (pixelbox.AreaResult{}) {
		t.Fatal("zero samples should estimate nothing")
	}
	dev := gpu.NewDevice(gpu.GTX580())
	res, launch := montecarlo.RunGPU(dev, nil, 100, 64, 1)
	if len(res) != 0 || launch.DeviceSeconds != 0 {
		t.Fatal("empty input consumed device time")
	}
}

func relErr(got, want int64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(float64(got-want)) / float64(want)
}
