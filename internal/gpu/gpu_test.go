package gpu

import (
	"sync"
	"testing"
)

func TestOccupancyLimits(t *testing.T) {
	cfg := GTX580()
	cases := []struct {
		blockDim, shmem, want int
	}{
		{64, 0, 8},        // capped by MaxBlocksPerSM
		{256, 0, 6},       // capped by threads: 1536/256
		{1536, 0, 1},      // one giant block
		{64, 24 << 10, 2}, // capped by shared memory: 48K/24K
		{64, 48 << 10, 1}, // whole shared memory per block
		{64, 64 << 10, 1}, // oversubscribed still clamps to 1
	}
	for _, c := range cases {
		if got := occupancy(cfg, c.blockDim, c.shmem); got != c.want {
			t.Errorf("occupancy(dim=%d, shmem=%d) = %d, want %d", c.blockDim, c.shmem, got, c.want)
		}
	}
}

func TestLaunchChargesUniform(t *testing.T) {
	dev := NewDevice(GTX580())
	res := dev.Launch(16, 64, 0, func(b *Block) {
		b.Uniform(100)
	})
	// 64 threads = 2 warps; 100 ops * 2 warps * CPI(4) = 800 cycles per
	// block; one block per SM => 800 cycles critical path.
	if res.Cycles != 800 {
		t.Fatalf("cycles = %v, want 800", res.Cycles)
	}
	if res.Counters.WarpInstrs != 16*200 {
		t.Fatalf("warp instrs = %d", res.Counters.WarpInstrs)
	}
	if res.DeviceSeconds <= 0 {
		t.Fatal("no device time")
	}
}

func TestLaunchRoundRobinImbalance(t *testing.T) {
	dev := NewDevice(GTX580())
	// 17 blocks on 16 SMs: SM 0 receives two blocks.
	res := dev.Launch(17, 32, 0, func(b *Block) { b.Uniform(10) })
	if res.Cycles != 80 {
		t.Fatalf("critical path = %v, want 80 (two blocks of 40 cycles on SM0)", res.Cycles)
	}
}

func TestStridedChargesIdleLanes(t *testing.T) {
	dev := NewDevice(GTX580())
	var few, exact float64
	r1 := dev.Launch(1, 64, 0, func(b *Block) { b.Strided(1, 10) })
	few = r1.Cycles
	r2 := dev.Launch(1, 64, 0, func(b *Block) { b.Strided(64, 10) })
	exact = r2.Cycles
	// One item still occupies the whole block's issue slots for one
	// iteration: same cost as 64 items.
	if few != exact {
		t.Fatalf("idle lanes not charged: 1 item %v cycles vs 64 items %v", few, exact)
	}
	r3 := dev.Launch(1, 64, 0, func(b *Block) { b.Strided(65, 10) })
	if r3.Cycles != 2*exact {
		t.Fatalf("65 items should take two iterations: %v vs %v", r3.Cycles, exact)
	}
}

func TestSharedPatternConflicts(t *testing.T) {
	dev := NewDevice(GTX580())
	// Unit-stride: no conflicts.
	unit := make([]int32, 32)
	for i := range unit {
		unit[i] = int32(i)
	}
	r := dev.Launch(1, 32, 0, func(b *Block) { b.SharedPattern(unit) })
	if r.Counters.ConflictCycles != 0 {
		t.Fatalf("unit stride conflicts = %v, want 0", r.Counters.ConflictCycles)
	}
	// Stride 8 with 32 banks: addresses 0,8,16.. map to banks {0,8,16,24}
	// => 8-way conflict.
	strided := make([]int32, 32)
	for i := range strided {
		strided[i] = int32(i * 8)
	}
	r = dev.Launch(1, 32, 0, func(b *Block) { b.SharedPattern(strided) })
	cfg := GTX580()
	wantExtra := float64(cfg.SharedLatency) * 7
	if r.Counters.ConflictCycles != wantExtra {
		t.Fatalf("8-way conflict cycles = %v, want %v", r.Counters.ConflictCycles, wantExtra)
	}
	// Same address across the warp broadcasts: no conflict.
	same := make([]int32, 32)
	r = dev.Launch(1, 32, 0, func(b *Block) { b.SharedPattern(same) })
	if r.Counters.ConflictCycles != 0 {
		t.Fatalf("broadcast conflicts = %v, want 0", r.Counters.ConflictCycles)
	}
}

func TestGlobalLatencyHiding(t *testing.T) {
	cfg := GTX580()
	dev := NewDevice(cfg)
	// Low occupancy: shared memory limits residency to one 2-warp block.
	lo := dev.Launch(1, 64, cfg.SharedMemPerSM, func(b *Block) { b.GlobalRead(128) })
	// High occupancy: eight 2-warp blocks resident.
	hi := dev.Launch(1, 64, 0, func(b *Block) { b.GlobalRead(128) })
	if lo.Counters.GlobalCycles <= hi.Counters.GlobalCycles {
		t.Fatalf("latency hiding inverted: lo=%v hi=%v", lo.Counters.GlobalCycles, hi.Counters.GlobalCycles)
	}
}

func TestBandwidthFloor(t *testing.T) {
	cfg := GTX580()
	dev := NewDevice(cfg)
	// Move 1 GiB with trivial compute: time must be at least bytes/BW.
	res := dev.Launch(16, 64, 0, func(b *Block) {
		b.GlobalRead(64 << 20)
	})
	minSecs := float64(16*(64<<20)) / cfg.GlobalBandwidth
	if res.DeviceSeconds < minSecs {
		t.Fatalf("device time %v below bandwidth floor %v", res.DeviceSeconds, minSecs)
	}
}

func TestSyncCost(t *testing.T) {
	cfg := GTX580()
	dev := NewDevice(cfg)
	res := dev.Launch(1, 64, 0, func(b *Block) {
		for i := 0; i < 10; i++ {
			b.Sync()
		}
	})
	if res.Counters.Barriers != 10 {
		t.Fatalf("barriers = %d", res.Counters.Barriers)
	}
	if res.Counters.SyncCycles != float64(10*cfg.SyncCycles) {
		t.Fatalf("sync cycles = %v", res.Counters.SyncCycles)
	}
}

func TestTransferBatchingAmortisesLatency(t *testing.T) {
	cfg := GTX580()
	one := NewDevice(cfg)
	many := NewDevice(cfg)
	batched := one.Transfer(100 * 1024)
	var split float64
	for i := 0; i < 100; i++ {
		split += many.Transfer(1024)
	}
	if batched >= split {
		t.Fatalf("batched transfer %v not cheaper than split %v", batched, split)
	}
}

func TestDeviceAccounting(t *testing.T) {
	dev := NewDevice(GTX580())
	if dev.BusySeconds() != 0 || dev.Launches() != 0 {
		t.Fatal("fresh device not idle")
	}
	dev.Launch(4, 32, 0, func(b *Block) { b.Uniform(10) })
	dev.Transfer(1 << 20)
	if dev.Launches() != 1 {
		t.Fatalf("launches = %d", dev.Launches())
	}
	if dev.BusySeconds() <= 0 {
		t.Fatal("busy time not recorded")
	}
}

func TestConcurrentLaunchesAreSafe(t *testing.T) {
	dev := NewDevice(GTX580())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev.Launch(4, 32, 0, func(b *Block) { b.Uniform(5) })
		}()
	}
	wg.Wait()
	if dev.Launches() != 8 {
		t.Fatalf("launches = %d, want 8", dev.Launches())
	}
}

func TestEmptyLaunch(t *testing.T) {
	dev := NewDevice(GTX580())
	res := dev.Launch(0, 64, 0, func(b *Block) { t.Error("kernel ran for empty grid") })
	if res.DeviceSeconds != 0 {
		t.Fatal("empty launch consumed time")
	}
}

func TestConfigs(t *testing.T) {
	g := GTX580()
	m := TeslaM2050()
	if g.SMs != 16 || m.SMs != 14 {
		t.Fatal("SM counts wrong")
	}
	if g.ClockHz <= m.ClockHz {
		t.Fatal("GTX 580 should clock higher than M2050")
	}
}

// TestLaunchAllocsIndependentOfGrid: a launch reuses one Block, so what it
// allocates (the Block, the per-SM cycle array) does not grow with the grid,
// and every block still starts from zeroed counters under its own index.
func TestLaunchAllocsIndependentOfGrid(t *testing.T) {
	dev := NewDevice(GTX580())
	var idxSum int
	kernel := func(b *Block) {
		if b.counters != (Counters{}) {
			t.Errorf("block %d starts with another block's counters", b.Idx)
		}
		idxSum += b.Idx
		b.Uniform(10)
	}
	allocs := func(grid int) float64 {
		return testing.AllocsPerRun(10, func() { dev.Launch(grid, 64, 0, kernel) })
	}
	small, large := allocs(1), allocs(1024)
	if large != small {
		t.Fatalf("a 1024-block launch allocates %v times, a 1-block launch %v", large, small)
	}
	idxSum = 0
	if res := dev.Launch(100, 64, 0, kernel); idxSum != 99*100/2 || res.Counters.WarpInstrs != 100*20 {
		t.Fatalf("100 blocks: index sum %d, %d warp instructions", idxSum, res.Counters.WarpInstrs)
	}
}
