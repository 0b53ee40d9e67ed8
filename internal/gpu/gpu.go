// Package gpu provides a SIMT GPU simulator: the hardware substitution that
// lets this pure-Go reproduction run the paper's CUDA experiments without a
// physical GPU (see DESIGN.md §1).
//
// Kernels written against this package execute their real computation on the
// host — results are bit-exact — while charging a calibrated cycle cost model
// for every vector operation: warp-granularity instruction issue (idle SIMD
// lanes still consume issue slots), shared-memory accesses with bank-conflict
// serialisation, global-memory transactions whose latency is hidden in
// proportion to resident-warp occupancy, and __syncthreads barriers. Block
// scheduling across SMs, occupancy limits, per-launch overhead, exclusive
// device ownership, and PCIe transfer costs are modelled at the device level.
//
// The model is deliberately Fermi-shaped (GTX 580 / Tesla M2050 are the
// paper's devices) but parameterised, so experiments can de-tune or resize
// the device as the paper does in §5.6.
package gpu

import (
	"fmt"
	"sync"
)

// Config describes a virtual GPU device.
type Config struct {
	Name            string
	SMs             int     // streaming multiprocessors
	CoresPerSM      int     // CUDA cores per SM (= warp instruction width)
	ClockHz         float64 // shader clock
	WarpSize        int     // threads per warp
	SharedMemBanks  int     // shared memory banks
	SharedMemPerSM  int     // bytes of shared memory per SM
	MaxThreadsPerSM int     // occupancy limit: resident threads
	MaxBlocksPerSM  int     // occupancy limit: resident blocks
	SharedLatency   int     // cycles per conflict-free shared access
	L1Latency       int     // cycles per L1-cached global access
	// CPI is the effective cycles per issued warp instruction. Fermi SMs
	// can issue one warp instruction per cycle only with enough independent
	// warps to cover the ~18-22 cycle arithmetic pipeline; the dependent
	// integer chains of geometry kernels at moderate occupancy sustain
	// roughly a quarter of peak issue.
	CPI             float64
	GlobalLatency   int     // cycles raw latency of a global transaction
	GlobalBandwidth float64 // device memory bandwidth, bytes/s
	SyncCycles      int     // cycles per __syncthreads barrier
	LaunchOverhead  float64 // seconds of fixed kernel-launch cost
	PCIeLatency     float64 // seconds of fixed host-device transfer cost
	PCIeBandwidth   float64 // host-device bandwidth, bytes/s
}

// GTX580 returns the configuration of the NVIDIA GeForce GTX 580 in the
// paper's Dell T1500 workstation (Fermi GF110: 16 SMs x 32 cores, 1.544 GHz
// shader clock, 48 KiB shared memory, 192 GB/s).
func GTX580() Config {
	return Config{
		Name:            "GeForce GTX 580",
		SMs:             16,
		CoresPerSM:      32,
		ClockHz:         1.544e9,
		WarpSize:        32,
		SharedMemBanks:  32,
		SharedMemPerSM:  48 << 10,
		MaxThreadsPerSM: 1536,
		MaxBlocksPerSM:  8,
		SharedLatency:   2,
		L1Latency:       18,
		CPI:             4,
		GlobalLatency:   400,
		GlobalBandwidth: 192e9,
		SyncCycles:      30,
		LaunchOverhead:  6e-6,
		PCIeLatency:     10e-6,
		PCIeBandwidth:   6e9,
	}
}

// TeslaM2050 returns the configuration of the NVIDIA Tesla M2050 in the
// paper's Amazon EC2 instance (Fermi GF100: 14 SMs x 32 cores, 1.15 GHz,
// 148 GB/s).
func TeslaM2050() Config {
	return Config{
		Name:            "Tesla M2050",
		SMs:             14,
		CoresPerSM:      32,
		ClockHz:         1.15e9,
		SharedMemBanks:  32,
		WarpSize:        32,
		SharedMemPerSM:  48 << 10,
		MaxThreadsPerSM: 1536,
		MaxBlocksPerSM:  8,
		SharedLatency:   2,
		L1Latency:       20,
		CPI:             4,
		GlobalLatency:   440,
		GlobalBandwidth: 148e9,
		SyncCycles:      30,
		LaunchOverhead:  6e-6,
		PCIeLatency:     10e-6,
		PCIeBandwidth:   5e9,
	}
}

// Counters aggregates the cost-model activity of a kernel launch, broken
// down by hardware resource. All values are in SM cycles except where noted.
type Counters struct {
	ALUCycles      float64 // warp instruction issue
	SharedCycles   float64 // shared-memory access (conflict-free part)
	ConflictCycles float64 // extra serialisation from bank conflicts
	GlobalCycles   float64 // global/L1 access latency after hiding
	SyncCycles     float64 // barrier cost
	GlobalBytes    int64   // bytes moved to/from device memory
	Barriers       int64   // number of __syncthreads executed
	WarpInstrs     int64   // warp instructions issued
}

// Total returns the summed cycle cost.
func (c *Counters) Total() float64 {
	return c.ALUCycles + c.SharedCycles + c.ConflictCycles + c.GlobalCycles + c.SyncCycles
}

func (c *Counters) add(o *Counters) {
	c.ALUCycles += o.ALUCycles
	c.SharedCycles += o.SharedCycles
	c.ConflictCycles += o.ConflictCycles
	c.GlobalCycles += o.GlobalCycles
	c.SyncCycles += o.SyncCycles
	c.GlobalBytes += o.GlobalBytes
	c.Barriers += o.Barriers
	c.WarpInstrs += o.WarpInstrs
}

// LaunchResult reports the outcome of a kernel launch.
type LaunchResult struct {
	DeviceSeconds  float64  // modelled execution time on the device
	Cycles         float64  // busiest-SM cycle count
	Blocks         int      // grid size
	ResidentBlocks int      // blocks resident per SM under occupancy limits
	Counters       Counters // aggregate activity
}

// Device is a virtual GPU. Launching kernels is serialised — a GPU is an
// exclusive, non-preemptive compute device (paper §4) — and each launch
// advances the device's busy-time accounting.
type Device struct {
	cfg Config

	mu        sync.Mutex
	busy      float64 // total modelled busy seconds
	launches  int64
	transfers int64
	moved     int64 // bytes over PCIe
}

// NewDevice creates a virtual device from a configuration.
func NewDevice(cfg Config) *Device { return &Device{cfg: cfg} }

// NewDevices creates a pool of n independent virtual devices sharing one
// configuration — the executor set a hybrid aggregator drives.
func NewDevices(n int, cfg Config) []*Device {
	out := make([]*Device, n)
	for i := range out {
		out[i] = NewDevice(cfg)
	}
	return out
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// BusySeconds returns the accumulated modelled busy time.
func (d *Device) BusySeconds() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.busy
}

// Launches returns the number of kernel launches executed.
func (d *Device) Launches() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.launches
}

// Snapshot is a point-in-time copy of a device's cumulative accounting.
type Snapshot struct {
	BusySeconds float64
	Launches    int64
	Transfers   int64
	BytesMoved  int64 // bytes over PCIe
}

// Stats returns the device's cumulative accounting in one consistent read,
// so callers bracketing a run (e.g. the scheduler attributing shard work)
// do not interleave half-updated counters.
func (d *Device) Stats() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Snapshot{
		BusySeconds: d.busy,
		Launches:    d.launches,
		Transfers:   d.transfers,
		BytesMoved:  d.moved,
	}
}

// Kernel is the body of a GPU kernel: it is invoked once per thread block
// and must perform its computation through (or alongside) the Block's
// cost-charging primitives. The Block is valid only until the call returns.
type Kernel func(b *Block)

// Launch executes kernel over a grid of gridDim blocks of blockDim threads,
// with shmemPerBlock bytes of shared memory per block, and returns the
// modelled execution result. The computation runs for real on the host; the
// returned DeviceSeconds is the simulated device time.
func (d *Device) Launch(gridDim, blockDim, shmemPerBlock int, kernel Kernel) LaunchResult {
	if gridDim <= 0 || blockDim <= 0 {
		return LaunchResult{}
	}
	cfg := d.cfg
	resident := occupancy(cfg, blockDim, shmemPerBlock)
	warps := (blockDim + cfg.WarpSize - 1) / cfg.WarpSize
	residentWarps := resident * warps
	if residentWarps < 1 {
		residentWarps = 1
	}
	// Latency hiding: a transaction's exposed latency shrinks as more warps
	// are resident to cover it, but never below the L1 pipeline depth.
	effGlobal := float64(cfg.GlobalLatency) / float64(residentWarps)
	if effGlobal < float64(cfg.SharedLatency) {
		effGlobal = float64(cfg.SharedLatency)
	}
	effL1 := float64(cfg.L1Latency) / float64(residentWarps)
	if effL1 < float64(cfg.SharedLatency) {
		effL1 = float64(cfg.SharedLatency)
	}

	smCycles := make([]float64, cfg.SMs)
	var agg Counters
	// One Block serves the whole launch, reset per index: blocks run one after
	// another on the host, and a kernel may not keep its handle past its call.
	b := &Block{
		GridDim:   gridDim,
		BlockDim:  blockDim,
		dev:       d,
		warps:     warps,
		effGlobal: effGlobal,
		effL1:     effL1,
	}
	for idx := 0; idx < gridDim; idx++ {
		b.Idx, b.counters = idx, Counters{}
		kernel(b)
		// Round-robin block scheduling across SMs; the busiest SM bounds
		// the launch. (Real hardware load-balances dynamically; round-robin
		// is a faithful approximation for uniform-cost blocks and a
		// conservative one otherwise.)
		sm := idx % cfg.SMs
		smCycles[sm] += b.counters.Total()
		agg.add(&b.counters)
	}
	maxCycles := 0.0
	for _, c := range smCycles {
		if c > maxCycles {
			maxCycles = c
		}
	}
	// Resident blocks on one SM interleave rather than run serially; the
	// cycle counts already charge issue slots, so interleaving does not
	// shorten the critical path — but memory-bound launches are additionally
	// floored by aggregate DRAM bandwidth.
	secs := maxCycles/cfg.ClockHz + cfg.LaunchOverhead
	if bwSecs := float64(agg.GlobalBytes) / cfg.GlobalBandwidth; bwSecs > secs {
		secs = bwSecs
	}

	d.mu.Lock()
	d.busy += secs
	d.launches++
	d.mu.Unlock()

	return LaunchResult{
		DeviceSeconds:  secs,
		Cycles:         maxCycles,
		Blocks:         gridDim,
		ResidentBlocks: resident,
		Counters:       agg,
	}
}

// Transfer models a host-device copy of n bytes and returns its time in
// seconds. Batching many small copies into one large one amortises the fixed
// PCIe latency — the reason the aggregator stage batches its input (§4.1).
func (d *Device) Transfer(n int64) float64 {
	secs := d.cfg.PCIeLatency + float64(n)/d.cfg.PCIeBandwidth
	d.mu.Lock()
	d.transfers++
	d.moved += n
	d.busy += secs
	d.mu.Unlock()
	return secs
}

// occupancy returns how many blocks of blockDim threads using shmemPerBlock
// bytes of shared memory can be resident on one SM.
func occupancy(cfg Config, blockDim, shmemPerBlock int) int {
	resident := cfg.MaxBlocksPerSM
	if byThreads := cfg.MaxThreadsPerSM / blockDim; byThreads < resident {
		resident = byThreads
	}
	if shmemPerBlock > 0 {
		if byShmem := cfg.SharedMemPerSM / shmemPerBlock; byShmem < resident {
			resident = byShmem
		}
	}
	if resident < 1 {
		resident = 1
	}
	return resident
}

// Block is the kernel-side handle: identification plus the cost-charging
// primitives through which a kernel describes the vector operations it has
// just executed on the host.
type Block struct {
	Idx      int // blockIdx.x
	GridDim  int // gridDim.x
	BlockDim int // blockDim.x

	dev       *Device
	warps     int
	effGlobal float64
	effL1     float64
	counters  Counters
}

// Uniform charges ops ALU/branch instructions executed by every thread of
// the block (one issue slot per warp per instruction).
func (b *Block) Uniform(ops int) {
	cpi := b.dev.cfg.CPI
	if cpi <= 0 {
		cpi = 1
	}
	b.counters.ALUCycles += float64(ops) * float64(b.warps) * cpi
	b.counters.WarpInstrs += int64(ops) * int64(b.warps)
}

// Strided charges a block-stride loop over items work items with opsPerItem
// instructions each: threads take ceil(items/blockDim) iterations, and a
// final iteration with fewer items than threads still occupies full warp
// issue slots — the SIMD-waste effect that makes tiny sampling boxes
// inefficient (paper §3.4).
func (b *Block) Strided(items, opsPerItem int) {
	if items <= 0 {
		return
	}
	iters := (items + b.BlockDim - 1) / b.BlockDim
	b.Uniform(iters * opsPerItem)
}

// Divergent charges a two-sided branch whose sides execute thenOps and
// elseOps instructions: under SIMT both sides are serialised for the warp
// whenever lanes disagree, so the charge is the sum.
func (b *Block) Divergent(thenOps, elseOps int) {
	b.Uniform(thenOps + elseOps)
}

// SharedAccess charges n conflict-free shared-memory accesses per thread.
func (b *Block) SharedAccess(n int) {
	c := float64(n) * float64(b.warps) * float64(b.dev.cfg.SharedLatency)
	b.counters.SharedCycles += c
}

// SharedBroadcast charges n shared-memory reads where the whole warp reads
// the same address (hardware broadcasts: one access).
func (b *Block) SharedBroadcast(n int) {
	b.counters.SharedCycles += float64(n) * float64(b.warps) * float64(b.dev.cfg.SharedLatency)
}

// SharedPattern charges one shared-memory access per thread at the given
// word addresses (thread i accesses wordAddrs[i]) and models real bank
// conflicts: within each warp, accesses serialise by the maximum number of
// distinct addresses mapping to one bank.
func (b *Block) SharedPattern(wordAddrs []int32) {
	cfg := b.dev.cfg
	ws := cfg.WarpSize
	for base := 0; base < len(wordAddrs); base += ws {
		end := base + ws
		if end > len(wordAddrs) {
			end = len(wordAddrs)
		}
		perBank := make(map[int32]map[int32]struct{}, cfg.SharedMemBanks)
		for _, a := range wordAddrs[base:end] {
			bank := a % int32(cfg.SharedMemBanks)
			if bank < 0 {
				bank += int32(cfg.SharedMemBanks)
			}
			if perBank[bank] == nil {
				perBank[bank] = make(map[int32]struct{})
			}
			perBank[bank][a] = struct{}{}
		}
		maxWays := 1
		for _, addrs := range perBank {
			if len(addrs) > maxWays {
				maxWays = len(addrs)
			}
		}
		b.counters.SharedCycles += float64(cfg.SharedLatency)
		b.counters.ConflictCycles += float64(cfg.SharedLatency) * float64(maxWays-1)
	}
}

// GlobalRead charges a read of n bytes from device memory, coalesced into
// 128-byte transactions, with latency hidden by occupancy.
func (b *Block) GlobalRead(n int) {
	tx := (n + 127) / 128
	b.counters.GlobalCycles += float64(tx) * b.effGlobal
	b.counters.GlobalBytes += int64(n)
}

// GlobalWrite charges a write of n bytes to device memory.
func (b *Block) GlobalWrite(n int) {
	tx := (n + 127) / 128
	b.counters.GlobalCycles += float64(tx) * b.effGlobal
	b.counters.GlobalBytes += int64(n)
}

// L1Read charges n per-warp reads that hit the L1 cache (repeatedly accessed
// read-only data, e.g. polygon vertices left in global memory).
func (b *Block) L1Read(n int) {
	b.counters.GlobalCycles += float64(n) * float64(b.warps) * b.effL1
}

// Sync charges one __syncthreads barrier.
func (b *Block) Sync() {
	b.counters.SyncCycles += float64(b.dev.cfg.SyncCycles)
	b.counters.Barriers++
}

// String identifies the block for diagnostics.
func (b *Block) String() string {
	return fmt.Sprintf("block %d/%d (dim %d)", b.Idx, b.GridDim, b.BlockDim)
}
