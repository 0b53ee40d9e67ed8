package pipeline

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/pathology"
	"repro/internal/tilepass"
)

func hybridDataset(t *testing.T) []FileTask {
	t.Helper()
	spec := pathology.Representative()
	spec.Tiles = 6
	return encodeDataset(pathology.Generate(spec))
}

func devices(n int) []*gpu.Device { return gpu.NewDevices(n, gpu.GTX580()) }

// TestHybridBitIdentical is the tentpole determinism guarantee: no matter
// which executor mix computes which tiles, the reported similarity must be
// bit-identical, because per-pair areas are exact integers and ratio
// accumulation folds per tile in canonical order.
func TestHybridBitIdentical(t *testing.T) {
	tasks := hybridDataset(t)

	gpuOnly, err := Run(tasks, Config{Devices: devices(1)})
	if err != nil {
		t.Fatal(err)
	}
	cpuOnly, err := Run(tasks, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Small batches so the work actually spreads across executors.
	hybrid, err := Run(tasks, Config{Devices: devices(2), CPUAggregators: 2, BatchPairs: 64})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		res  Result
	}{{"cpu-only", cpuOnly}, {"hybrid", hybrid}} {
		if tc.res.Similarity != gpuOnly.Similarity {
			t.Errorf("%s similarity = %.17g, gpu-only = %.17g (must be bit-identical)",
				tc.name, tc.res.Similarity, gpuOnly.Similarity)
		}
		if tc.res.RatioSum != gpuOnly.RatioSum {
			t.Errorf("%s ratio sum = %.17g, gpu-only = %.17g", tc.name, tc.res.RatioSum, gpuOnly.RatioSum)
		}
		if tc.res.Intersecting != gpuOnly.Intersecting || tc.res.Candidates != gpuOnly.Candidates {
			t.Errorf("%s pair counts (%d,%d) != gpu-only (%d,%d)", tc.name,
				tc.res.Intersecting, tc.res.Candidates, gpuOnly.Intersecting, gpuOnly.Candidates)
		}
	}
	if len(hybrid.TileRatios) != len(tasks) {
		t.Errorf("hybrid tracked %d tiles, want %d", len(hybrid.TileRatios), len(tasks))
	}
}

// TestHybridExecutorAccounting checks that the hybrid pool reports one
// executor per device plus each CPU aggregator, that their pair counts add
// up, and that work actually co-executed on both kinds.
func TestHybridExecutorAccounting(t *testing.T) {
	spec := pathology.Representative()
	spec.Tiles = 12
	tasks := encodeDataset(pathology.Generate(spec))
	res, err := Run(tasks, Config{Devices: devices(2), CPUAggregators: 2, BatchPairs: 32})
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Stats.Executors
	if len(ex) != 4 {
		t.Fatalf("got %d executors, want 4: %+v", len(ex), ex)
	}
	var gpus, cpus int
	var pairs int64
	for _, e := range ex {
		switch e.Kind {
		case tilepass.ExecGPU:
			gpus++
		case tilepass.ExecCPU:
			cpus++
		default:
			t.Errorf("unknown executor kind %q", e.Kind)
		}
		pairs += e.Pairs
		if e.Batches > 0 && e.PairsPerSec <= 0 {
			t.Errorf("executor %s ran %d batches but reports throughput %v", e.ID, e.Batches, e.PairsPerSec)
		}
	}
	if gpus != 2 || cpus != 2 {
		t.Errorf("executor mix gpu=%d cpu=%d, want 2/2", gpus, cpus)
	}
	if got := int64(res.Stats.PairsOnGPU + res.Stats.PairsOnCPU); pairs != got {
		t.Errorf("executor pairs sum %d != pipeline pair count %d", pairs, got)
	}
	if res.Stats.PairsOnGPU == 0 {
		t.Error("no pairs executed on GPU executors")
	}
	// With tiny batches and two CPU executors, CPUs essentially always get
	// work; don't hard-require it to avoid scheduling flakes, but the total
	// must be conserved (checked above).
}

// TestClaimTargetScalesWithThroughput pins the cost-model policy: claim
// sizes are proportional to measured executor throughput, clamped to
// [1, BatchPairs].
func TestClaimTargetScalesWithThroughput(t *testing.T) {
	cfg := Config{BatchPairs: 1000}.normalized()
	fast := &executor{id: "gpu0", kind: tilepass.ExecGPU}
	slow := &executor{id: "cpu0", kind: tilepass.ExecCPU}
	r := &run{cfg: cfg, executors: []*executor{fast, slow}}

	// Converge the EWMAs onto 1e6 and 1e5 pairs/s.
	for i := 0; i < 20; i++ {
		fast.observe(1_000_000, 1e9) // 1e6 pairs over 1s
		slow.observe(100_000, 1e9)
	}

	if got := r.claimTarget(fast); got != 1000 {
		t.Errorf("fast claim = %d, want full batch 1000", got)
	}
	got := r.claimTarget(slow)
	if got < 80 || got > 120 {
		t.Errorf("slow claim = %d, want ~100 (10%% of fast)", got)
	}
}

// TestWarmthSeedsExecutors checks the warm-start path: a remembered
// measurement for a labelled executor replaces the static prior at pool
// construction, while executors without history keep the static seed, and a
// run with a Warmth configured records its measurements back.
func TestWarmthSeedsExecutors(t *testing.T) {
	warm := NewThroughputMemory()
	warm.Record("shard/gpu0", 123456)
	cfg := Config{
		Devices:        devices(1),
		CPUAggregators: 1,
		ExecutorLabel:  "shard/",
		Warmth:         warm,
	}.normalized()
	execs := buildExecutors(cfg)
	if len(execs) != 2 {
		t.Fatalf("built %d executors, want 2", len(execs))
	}
	if tp := execs[0].throughput(); tp != 123456 {
		t.Errorf("gpu0 seeded with %v, want remembered 123456", tp)
	}
	if tp := execs[1].throughput(); tp != cpuThroughputPrior {
		t.Errorf("cpu0 seeded with %v, want static prior %v (no history)", tp, cpuThroughputPrior)
	}

	// A full run must deposit measurements for the executors that worked.
	if _, err := Run(hybridDataset(t), Config{ExecutorLabel: "warmrun/", Warmth: warm}); err != nil {
		t.Fatal(err)
	}
	if tp, ok := warm.Prior("warmrun/cpu0"); !ok || tp <= 0 {
		t.Errorf("Prior(warmrun/cpu0) = %v, %v; want a positive measurement", tp, ok)
	}
}
