package pixelbox_test

// Differential/property suite (hardening for the hybrid aggregator): on
// randomly generated rectilinear polygon pairs, PixelBox-GPU, PixelBox-CPU,
// the paper's literal per-pixel CPU port and the exact sweep overlay must
// agree on every area, and the full pipeline must report bit-identical
// similarity whether it aggregates on one GPU, on CPUs only, or on the hybrid
// executor pool.

import (
	"math/rand"
	"testing"

	"repro/internal/clip"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
	"repro/internal/tilepass"
)

func TestDifferentialGPUvsCPUvsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1FF))
	n := 60
	if testing.Short() {
		n = 15
	}
	pairs := randomPairs(rng, n, 48)

	dev := gpu.NewDevice(gpu.GTX580())
	gpuRes, _, _ := pixelbox.RunGPU(dev, pairs, pixelbox.Config{})
	cpuRes := pixelbox.RunCPU(pairs, pixelbox.CPUConfig{})
	literal := experiments.LiteralCPU(pairs)

	for i, pr := range pairs {
		inter := clip.IntersectionArea(pr.P, pr.Q)
		union := pr.P.Area() + pr.Q.Area() - inter
		want := pixelbox.AreaResult{Intersection: inter, Union: union}
		if gpuRes[i] != want {
			t.Errorf("pair %d: GPU %+v != exact %+v", i, gpuRes[i], want)
		}
		if cpuRes[i] != want {
			t.Errorf("pair %d: CPU %+v != exact %+v", i, cpuRes[i], want)
		}
		if literal[i] != want {
			t.Errorf("pair %d: literal CPU port %+v != exact %+v", i, literal[i], want)
		}
	}
}

// TestDifferentialVariantsAgree runs every canonical kernel variant over the
// same random pairs: implementation optimisations must never change results.
func TestDifferentialVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBEEF))
	pairs := randomPairs(rng, 20, 32)
	variants := []pixelbox.Variant{
		pixelbox.PixelBox, pixelbox.PixelBoxNoSep, pixelbox.PixelOnly,
		pixelbox.NoOpt, pixelbox.NBC, pixelbox.NBCUR,
	}
	var want []pixelbox.AreaResult
	for vi, v := range variants {
		dev := gpu.NewDevice(gpu.GTX580())
		got, _, _ := pixelbox.RunGPU(dev, pairs, pixelbox.Config{Variant: v})
		if vi == 0 {
			want = got
			for i, pr := range pairs {
				inter := clip.IntersectionArea(pr.P, pr.Q)
				if got[i].Intersection != inter {
					t.Fatalf("pair %d: %s intersection %d != exact %d", i, v.Name(), got[i].Intersection, inter)
				}
			}
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("pair %d: variant %s %+v != PixelBox %+v", i, v.Name(), got[i], want[i])
			}
		}
	}
}

// TestHybridPipelineBitIdenticalAcrossExecutors is the differential
// guarantee the ISSUE demands: on the same dataset seed, hybrid pipeline
// similarity is bit-identical to GPU-only and CPU-only runs.
func TestHybridPipelineBitIdenticalAcrossExecutors(t *testing.T) {
	spec := pathology.Representative()
	spec.Tiles = 5
	tasks := pathologytest.Tasks(pathology.Generate(spec))

	runWith := func(cfg pipeline.Config) tilepass.Result {
		t.Helper()
		res, err := pipeline.Run(tasks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	gpuOnly := runWith(pipeline.Config{Devices: []*gpu.Device{gpu.NewDevice(gpu.GTX580())}})
	cpuOnly := runWith(pipeline.Config{})
	hybrid := runWith(pipeline.Config{
		Devices:        []*gpu.Device{gpu.NewDevice(gpu.GTX580()), gpu.NewDevice(gpu.GTX580())},
		CPUAggregators: 2,
		BatchPairs:     64,
	})
	hybridMig := runWith(pipeline.Config{
		Devices:        []*gpu.Device{gpu.NewDevice(gpu.GTX580())},
		CPUAggregators: 1,
		BatchPairs:     32,
		BufferCap:      2,
		Migration:      true,
	})

	for _, tc := range []struct {
		name string
		res  tilepass.Result
	}{{"cpu-only", cpuOnly}, {"hybrid", hybrid}, {"hybrid+migration", hybridMig}} {
		if tc.res.Similarity != gpuOnly.Similarity || tc.res.RatioSum != gpuOnly.RatioSum {
			t.Errorf("%s: similarity %.17g / ratio %.17g, gpu-only %.17g / %.17g (must be bit-identical)",
				tc.name, tc.res.Similarity, tc.res.RatioSum, gpuOnly.Similarity, gpuOnly.RatioSum)
		}
		if tc.res.Intersecting != gpuOnly.Intersecting || tc.res.Candidates != gpuOnly.Candidates {
			t.Errorf("%s: counts (%d,%d) != gpu-only (%d,%d)", tc.name,
				tc.res.Intersecting, tc.res.Candidates, gpuOnly.Intersecting, gpuOnly.Candidates)
		}
	}
}
