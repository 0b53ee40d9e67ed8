package pipeline

// The hybrid aggregator: the single-device aggregator of paper §4.1
// generalised to a pool of co-executing heterogeneous executors. Each
// simulated GPU device and each PixelBox-CPU worker is an executor that
// steals pair-task batches from the shared aggregator input buffer. The
// paper's buffer-pressure migration heuristic (§4.2: move work to the CPU
// only when the GPU's input buffer fills) generalises here into a
// cost-model-driven stealing policy: every executor measures its own
// throughput (pairs/second, EWMA over its batches) and claims a batch sized
// proportionally to that throughput — the fastest executor claims full
// BatchPairs batches, slower executors claim proportionally less and always
// pick the cheapest tasks in the buffer, so a slow executor can never hold
// the tail of the pipeline hostage while fast executors idle.
//
// The stealing policy, its EWMA claim sizing and ThroughputMemory drive Run
// only. RunParsed builds the same pool but hands each executor whole tiles
// (tiles.go); the EWMA is then only reported.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpu"
	"repro/internal/pixelbox"
)

// Executor kinds.
const (
	ExecGPU = "gpu"
	ExecCPU = "cpu"
)

// ThroughputMemory carries measured executor throughput (EWMA pairs/sec)
// across Run calls, keyed by labelled executor ID. A caller shares one
// memory across the runs of one executor set so a new run's first claims are
// sized from its measured history instead of resetting to the static priors
// every time. Safe for concurrent use.
type ThroughputMemory struct {
	mu sync.Mutex
	tp map[string]float64
}

// NewThroughputMemory returns an empty throughput memory.
func NewThroughputMemory() *ThroughputMemory {
	return &ThroughputMemory{tp: make(map[string]float64)}
}

// Prior returns the remembered throughput for a labelled executor ID.
func (m *ThroughputMemory) Prior(id string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.tp[id]
	return v, ok
}

// Record stores an executor's measured throughput for future runs.
func (m *ThroughputMemory) Record(id string, pairsPerSec float64) {
	if pairsPerSec <= 0 {
		return
	}
	m.mu.Lock()
	m.tp[id] = pairsPerSec
	m.mu.Unlock()
}

// ExecutorStats reports one hybrid-aggregator executor's work. In a
// RunParsed run one batch is one tile and Busy is the time spent counting.
type ExecutorStats struct {
	ID      string
	Kind    string // ExecGPU or ExecCPU
	Batches int64
	Pairs   int64
	Busy    time.Duration
	// PairsPerSec is the executor's final measured throughput (EWMA over
	// its batches) — the quantity the stealing policy sizes claims with.
	PairsPerSec float64
}

// Throughput priors seed the cost model before an executor has processed a
// batch. Only their ratio matters (it sets the first claim sizes); both
// estimates converge to measurements after the first batch. The 8:1 ratio
// reflects the paper's PixelBox-vs-CPU gap at pipeline batch sizes.
const (
	gpuThroughputPrior = 2e6
	cpuThroughputPrior = 2.5e5
	throughputEWMA     = 0.4 // weight of the newest sample
)

// executor is one member of the hybrid aggregator pool.
type executor struct {
	id   string
	kind string
	dev  *gpu.Device        // ExecGPU only
	cpu  pixelbox.CPUConfig // ExecCPU only

	tpBits  uint64 // atomic float64 bits: EWMA pairs/sec
	batches int64  // atomic
	pairs   int64  // atomic
	busyNS  int64  // atomic
}

func (e *executor) throughput() float64 {
	return math.Float64frombits(atomic.LoadUint64(&e.tpBits))
}

// observe folds one batch's measured throughput into the executor's EWMA.
func (e *executor) observe(pairs int, elapsed time.Duration) {
	atomic.AddInt64(&e.batches, 1)
	atomic.AddInt64(&e.pairs, int64(pairs))
	atomic.AddInt64(&e.busyNS, int64(elapsed))
	secs := elapsed.Seconds()
	if pairs <= 0 || secs <= 0 {
		return
	}
	sample := float64(pairs) / secs
	next := e.throughput()*(1-throughputEWMA) + sample*throughputEWMA
	atomic.StoreUint64(&e.tpBits, math.Float64bits(next))
}

func (e *executor) snapshot() ExecutorStats {
	return ExecutorStats{
		ID:          e.id,
		Kind:        e.kind,
		Batches:     atomic.LoadInt64(&e.batches),
		Pairs:       atomic.LoadInt64(&e.pairs),
		Busy:        time.Duration(atomic.LoadInt64(&e.busyNS)),
		PairsPerSec: e.throughput(),
	}
}

// buildExecutors assembles the aggregator pool for a normalized config: one
// GPU executor per device plus CPUAggregators PixelBox-CPU executors. In
// hybrid mode each CPU executor is single-threaded (parallelism comes from
// the pool); in CPU-only mode the lone CPU executor keeps the full
// RunCPUParallel worker count, preserving the original fallback behaviour.
func buildExecutors(cfg Config) []*executor {
	var execs []*executor
	// Warm start: a remembered measurement for this labelled executor beats
	// the static prior — first claims are then sized from the executor's
	// real history instead of converging from scratch every run.
	prior := func(id string, static float64) uint64 {
		if cfg.Warmth != nil {
			if v, ok := cfg.Warmth.Prior(cfg.ExecutorLabel + id); ok {
				return math.Float64bits(v)
			}
		}
		return math.Float64bits(static)
	}
	for i, dev := range cfg.Devices {
		id := fmt.Sprintf("gpu%d", i)
		execs = append(execs, &executor{
			id:     id,
			kind:   ExecGPU,
			dev:    dev,
			tpBits: prior(id, gpuThroughputPrior),
		})
	}
	cpuCfg := cfg.CPU
	if len(cfg.Devices) > 0 || cfg.CPUAggregators > 1 {
		// Any multi-executor pool: parallelism comes from the pool itself,
		// so each CPU executor is single-threaded (otherwise a GPU-less
		// hybrid pool would run CPUAggregators x Workers goroutines).
		cpuCfg.Workers = 1
	}
	for i := 0; i < cfg.CPUAggregators; i++ {
		id := fmt.Sprintf("cpu%d", i)
		execs = append(execs, &executor{
			id:     id,
			kind:   ExecCPU,
			cpu:    cpuCfg,
			tpBits: prior(id, cpuThroughputPrior),
		})
	}
	return execs
}

func pairTaskWeight(t pairTask) int { return len(t.pairs) }

// claimTarget returns the executor's batch-size target: BatchPairs scaled by
// the executor's measured throughput relative to the fastest pool member.
func (r *run) claimTarget(e *executor) int {
	maxTP := 0.0
	for _, o := range r.executors {
		if tp := o.throughput(); tp > maxTP {
			maxTP = tp
		}
	}
	tp := e.throughput()
	if maxTP <= 0 || tp <= 0 {
		return r.cfg.BatchPairs
	}
	want := int(float64(r.cfg.BatchPairs) * tp / maxTP)
	if want < 1 {
		want = 1
	}
	if want > r.cfg.BatchPairs {
		want = r.cfg.BatchPairs
	}
	return want
}

// claim blocks for the executor's next batch of whole tile tasks, sized by
// the cost model. GPU executors consume FIFO; CPU executors in a hybrid pool
// steal the smallest tasks first, mirroring the §4.2 migrator's "select the
// smallest tasks" rule. ok is false when the pair buffer has drained.
func (r *run) claim(e *executor) (batch []pairTask, ok bool) {
	stealSmallest := e.kind == ExecCPU && len(r.executors) > 1
	want := r.claimTarget(e)
	var t pairTask
	if stealSmallest {
		t, ok = r.pairBuf.getMin(pairTaskWeight)
	} else {
		t, ok = r.pairBuf.get()
	}
	if !ok {
		return nil, false
	}
	batch = append(batch, t)
	got := len(t.pairs)
	for got < want {
		if stealSmallest {
			t, ok = r.pairBuf.stealMin(pairTaskWeight)
		} else {
			t, ok = r.pairBuf.tryGet()
		}
		if !ok {
			break
		}
		batch = append(batch, t)
		got += len(t.pairs)
	}
	return batch, true
}

// executorWorker is one executor's aggregation loop in the staged pipeline
// (Run): claim a batch, compute exact areas with the executor's backend in a
// single consolidated launch, then fold each tile's results into its
// accumulator.
//
// The GPUs are the aggregator and the CPU executors its helpers (§4.2 moves
// work to the CPU only once the GPU is busy), so a CPU executor starts
// claiming after a GPU executor holds a batch. Without the order, which kind
// computes a short run's pairs is decided by which goroutine the scheduler
// happens to wake first.
func (r *run) executorWorker(e *executor) {
	if e.kind == ExecCPU {
		r.gpuClaimed.Wait()
	}
	for {
		batch, ok := r.claim(e)
		if e.kind == ExecGPU {
			r.gpuClaimedOnce.Do(r.gpuClaimed.Done)
		}
		if !ok {
			return
		}
		var n int
		for _, t := range batch {
			n += len(t.pairs)
		}
		flat := make([]pixelbox.Pair, 0, n)
		for _, t := range batch {
			flat = append(flat, t.pairs...)
		}
		start := time.Now()
		var results []pixelbox.AreaResult
		if e.kind == ExecGPU {
			results, _, _ = pixelbox.RunGPU(e.dev, flat, r.cfg.PixelBox)
		} else {
			results = pixelbox.RunCPUParallel(flat, e.cpu)
		}
		elapsed := time.Since(start)
		off := 0
		for _, t := range batch {
			r.accumulateTask(t, results[off:off+len(t.pairs)], e.kind == ExecGPU)
			off += len(t.pairs)
		}
		e.observe(n, elapsed)
		atomic.AddInt64(&r.aggBusy, int64(elapsed))
	}
}
