// Package sccg is the public facade of the SCCG reproduction — "Spatial
// Cross-comparison on CPUs and GPUs" (Wang et al., PVLDB 5(11), 2012).
//
// SCCG cross-compares two sets of segmented micro-anatomic object boundaries
// (rectilinear integer polygons extracted from pathology images) and reports
// their Jaccard similarity J' — the mean ratio of intersection area to union
// area over truly-intersecting polygon pairs. The heavy lifting is done by
// the PixelBox algorithm (internal/pixelbox) running on a simulated GPU
// (internal/gpu) or on CPU workers, orchestrated by a four-stage pipeline
// with dynamic task migration (internal/pipeline).
//
// Quick start:
//
//	eng := sccg.NewEngine(sccg.Options{})
//	report, err := eng.CrossCompareDataset(tasks) // tasks from EncodeDataset
//	fmt.Println(report.Similarity)
//
// See examples/ for runnable scenarios and cmd/ for the CLI tools.
package sccg

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"repro/internal/clip"
	"repro/internal/cluster"
	"repro/internal/compare"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/jaccard"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
	"repro/internal/retention"
	"repro/internal/rtree"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Re-exported core types, so downstream users work entirely through this
// package.
type (
	// Polygon is a rectilinear integer polygon (a segmented object
	// boundary).
	Polygon = geom.Polygon
	// Point is an integer vertex.
	Point = geom.Point
	// MBR is a minimum bounding rectangle.
	MBR = geom.MBR
	// Pair is one polygon pair to cross-compare.
	Pair = pixelbox.Pair
	// AreaResult is a pair's exact intersection/union pixel counts.
	AreaResult = pixelbox.AreaResult
	// FileTask is one image tile's raw text input to the pipeline.
	FileTask = pipeline.FileTask
	// Report is a pipeline run's outcome.
	Report = pipeline.Result
	// DatasetSpec describes a synthetic dataset.
	DatasetSpec = pathology.DatasetSpec
	// Dataset is a generated dataset.
	Dataset = pathology.Dataset
	// SearchStats counts the R-tree work done by a join or search.
	SearchStats = rtree.SearchStats
	// JobStatus is a job snapshot from the service scheduler.
	JobStatus = sched.JobStatus
	// Store is the persistent content-addressed dataset store.
	Store = store.Store
	// DatasetManifest describes one stored dataset (content ID, per-tile
	// byte layout).
	DatasetManifest = store.Manifest
	// MatrixStatus is a K-way similarity matrix run's snapshot: the K×K
	// cell grid plus the aggregate over the run's cell jobs.
	MatrixStatus = compare.Status
	// MatrixCell is one cell of a matrix status.
	MatrixCell = compare.CellView
	// MatrixQuery is the full matrix request form: symmetric or bipartite
	// axes plus the progressive top-k / min-similarity objectives.
	MatrixQuery = server.MatrixRequest
	// CrossMatch reports how two datasets' tile indexes paired up (matched
	// pairs plus the keys present on only one side).
	CrossMatch = compare.Match
	// RetentionPolicy bounds a service's store (byte budget, TTL, sweep
	// period); see ServiceOptions.
	RetentionPolicy = retention.Policy
	// RetentionSweep reports one retention pass's evictions.
	RetentionSweep = retention.Sweep
)

// NewPolygon validates vertices as a simple rectilinear polygon.
func NewPolygon(vertices []Point) (*Polygon, error) { return geom.NewPolygon(vertices) }

// ParsePolygons decodes a polygon text file (one `id POLYGON ((x y,...))`
// per line).
func ParsePolygons(data []byte) ([]*Polygon, error) { return parser.Parse(data) }

// EncodePolygons serialises polygons into the text file format.
func EncodePolygons(polys []*Polygon) []byte { return parser.Encode(polys) }

// Options configures an Engine.
type Options struct {
	// DisableGPU runs PixelBox-CPU on Workers goroutines instead of
	// aggregating on the simulated GTX 580.
	DisableGPU bool
	// GPUs is the simulated GPU count the hybrid aggregator co-executes on;
	// defaults to 1 when GPU is enabled. Ignored when DisableGPU is set.
	GPUs int
	// HybridCPU co-executes PixelBox-CPU aggregator workers alongside the
	// GPUs under the cost-model stealing policy. The similarity is
	// bit-identical to a single-device run; only throughput changes.
	HybridCPU bool
	// Workers is the CPU worker count for parsing and CPU aggregation;
	// defaults to GOMAXPROCS.
	Workers int
	// Migration enables dynamic task migration between CPUs and the GPU.
	Migration bool
	// PixelBox tunes the kernel (block size, threshold T, variant).
	PixelBox pixelbox.Config
}

// Engine cross-compares polygon result sets.
type Engine struct {
	opts Options
	devs []*gpu.Device
}

// NewEngine creates an engine; with GPU enabled it owns Options.GPUs
// simulated GTX 580 devices (one by default).
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts}
	if !opts.DisableGPU {
		n := opts.GPUs
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			e.devs = append(e.devs, gpu.NewDevice(gpu.GTX580()))
		}
	}
	return e
}

// Device returns the engine's first simulated GPU (nil when disabled),
// exposing busy-time accounting.
func (e *Engine) Device() *gpu.Device {
	if len(e.devs) == 0 {
		return nil
	}
	return e.devs[0]
}

// Devices returns all of the engine's simulated GPUs (empty when disabled).
func (e *Engine) Devices() []*gpu.Device { return e.devs }

// cpuAggregators returns the hybrid CPU executor count implied by the
// options.
func (e *Engine) cpuAggregators() int {
	if !e.opts.HybridCPU {
		return 0
	}
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CrossCompareDataset runs the full SCCG pipeline — parse, index, filter,
// hybrid aggregate — over an image's tile files and returns the similarity
// report.
func (e *Engine) CrossCompareDataset(tasks []FileTask) (Report, error) {
	return pipeline.Run(tasks, pipeline.Config{
		ParserWorkers:  e.opts.Workers,
		Devices:        e.devs,
		CPUAggregators: e.cpuAggregators(),
		CPU:            pixelbox.CPUConfig{Workers: e.opts.Workers},
		PixelBox:       e.opts.PixelBox,
		Migration:      e.opts.Migration,
	})
}

// CrossComparePolygons compares two in-memory result sets directly (index,
// filter, aggregate; no text parsing) and returns J' with pair counts.
func (e *Engine) CrossComparePolygons(a, b []*Polygon) (similarity float64, intersecting, candidates int) {
	sim, hits, cands, _ := e.CrossComparePolygonsErr(a, b)
	return sim, hits, cands
}

// CrossComparePolygonsErr is the error-reporting variant of
// CrossComparePolygons: it rejects nil polygons instead of panicking deep in
// the aggregation kernel.
func (e *Engine) CrossComparePolygonsErr(a, b []*Polygon) (similarity float64, intersecting, candidates int, err error) {
	pairs, _, err := MatchPairsErr(a, b)
	if err != nil {
		return 0, 0, 0, err
	}
	results, err := e.ComputeAreasErr(pairs)
	if err != nil {
		return 0, 0, 0, err
	}
	var acc jaccard.Accumulator
	acc.AddResults(results)
	sim, _ := acc.Similarity()
	return sim, acc.Intersecting(), acc.Candidates(), nil
}

// ComputeAreas computes exact intersection/union areas for polygon pairs
// using the configured backend. Invalid input (a nil polygon in a pair) is
// silently tolerated here for backward compatibility; new code should call
// ComputeAreasErr.
func (e *Engine) ComputeAreas(pairs []Pair) []AreaResult {
	results, err := e.ComputeAreasErr(pairs)
	if err != nil {
		return nil
	}
	return results
}

// ComputeAreasErr is the validating variant of ComputeAreas: it rejects
// pairs containing nil polygons up front rather than crashing inside the
// kernel.
func (e *Engine) ComputeAreasErr(pairs []Pair) ([]AreaResult, error) {
	for i, pr := range pairs {
		if pr.P == nil || pr.Q == nil {
			return nil, fmt.Errorf("sccg: pair %d contains a nil polygon", i)
		}
	}
	if dev := e.Device(); dev != nil {
		results, _, _ := pixelbox.RunGPU(dev, pairs, e.opts.PixelBox)
		return results, nil
	}
	return pixelbox.RunCPUParallel(pairs, pixelbox.CPUConfig{Workers: e.opts.Workers}), nil
}

// MatchPairs builds Hilbert R-trees over both result sets and returns every
// pair with intersecting MBRs (the filter stage). Join statistics and input
// validation are discarded; new code should call MatchPairsErr.
func MatchPairs(a, b []*Polygon) []Pair {
	pairs, _, err := MatchPairsErr(a, b)
	if err != nil {
		return nil
	}
	return pairs
}

// MatchPairsErr is the validating variant of MatchPairs: it rejects nil
// polygons and returns the join's R-tree search statistics instead of
// dropping them.
func MatchPairsErr(a, b []*Polygon) ([]Pair, SearchStats, error) {
	ea := make([]rtree.Entry, len(a))
	for i, p := range a {
		if p == nil {
			return nil, SearchStats{}, fmt.Errorf("sccg: result set A polygon %d is nil", i)
		}
		ea[i] = rtree.Entry{MBR: p.MBR(), ID: int32(i)}
	}
	eb := make([]rtree.Entry, len(b))
	for i, p := range b {
		if p == nil {
			return nil, SearchStats{}, fmt.Errorf("sccg: result set B polygon %d is nil", i)
		}
		eb[i] = rtree.Entry{MBR: p.MBR(), ID: int32(i)}
	}
	joined, stats := rtree.Join(rtree.Build(ea, rtree.Options{}), rtree.Build(eb, rtree.Options{}), nil)
	pairs := make([]Pair, len(joined))
	for i, pr := range joined {
		pairs[i] = Pair{P: a[pr.A], Q: b[pr.B]}
	}
	return pairs, stats, nil
}

// ExactAreas computes a pair's areas with the exact sweep overlay (the
// GEOS-equivalent reference; bit-identical to PixelBox, far slower).
func ExactAreas(p, q *Polygon) AreaResult {
	inter := clip.IntersectionArea(p, q)
	return AreaResult{Intersection: inter, Union: p.Area() + q.Area() - inter}
}

// GenerateDataset synthesises a dataset from a spec (see Corpus for the
// paper-shaped corpus).
func GenerateDataset(spec DatasetSpec) *Dataset { return pathology.Generate(spec) }

// Corpus returns the 18-dataset synthetic corpus mirroring the paper's
// evaluation data.
func Corpus() []DatasetSpec { return pathology.Corpus() }

// Representative returns the corpus dataset playing the role of the paper's
// oligoastroIII_1.
func Representative() DatasetSpec { return pathology.Representative() }

// EncodeDataset converts a dataset into pipeline input tasks.
func EncodeDataset(d *Dataset) []FileTask { return pipeline.EncodeDataset(d) }

// OpenStore opens (creating if needed) the persistent dataset store rooted
// at dir, recovering previously ingested datasets by re-scanning their
// manifests.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// IngestDataset persists a generated dataset into the store and returns its
// content-addressed manifest. Ingestion is idempotent: identical polygon
// content maps to the same dataset ID.
func IngestDataset(st *Store, d *Dataset) (*DatasetManifest, error) {
	return st.IngestDataset(d)
}

// ServiceOptions configures the resident cross-comparison job service.
type ServiceOptions struct {
	// Devices is the simulated-GPU pool size, one executor slot per GPU; 0
	// runs one CPU-only slot.
	Devices int
	// HybridCPU co-executes PixelBox-CPU aggregators alongside each slot's
	// GPU, each taking whole tiles.
	HybridCPU bool
	// Workers is each shard pipeline's CPU worker count.
	Workers int
	// QueueDepth bounds the job queue; 0 selects the scheduler default.
	QueueDepth int
	// CacheMaxEntries bounds the HTTP result store in keys; past it the least
	// recently used key goes, its persisted report included. 0 means
	// unbounded.
	CacheMaxEntries int
	// Store, when set, backs the /datasets endpoints, jobs by dataset ID,
	// cross-dataset jobs, matrix runs, and content-hash result caching —
	// including the persisted report cache under the store directory (see
	// OpenStore).
	Store *Store
	// Retention bounds the store: a byte budget over which
	// least-recently-used unpinned datasets are evicted (datasets referenced
	// by queued/running jobs are pinned and never evicted), a TTL for unused
	// datasets, and the background sweep period. The zero value bounds
	// nothing. Requires Store; Service.Close stops the sweeper.
	Retention RetentionPolicy
	// Peers, when non-empty, puts the service in clustered mode: datasets
	// missing locally are pulled peer-to-peer (digest-verified on arrival),
	// and the persisted result cache becomes a cluster-wide read-through.
	// Work computes on the node that was asked, matrix cells included. Each
	// entry is a peer base URL (host:port accepted).
	// Requires Store and Advertise.
	Peers []string
	// Advertise is this node's own base URL as peers reach it; it anchors the
	// node's position in the rendezvous hash ring. Required with Peers.
	Advertise string
	// QuerylogMaxBytes bounds the persisted query/access log kept under the
	// store directory. 0 selects the 64 MiB default; negative disables the
	// log. Requires Store.
	QuerylogMaxBytes int64
	// SlowQuery, when positive, logs a structured warning (with the job's
	// trace summary) for any job slower than this threshold.
	SlowQuery time.Duration
	// Tenants is the multi-tenant QoS configuration (token-keyed tenants
	// with byte/dataset/queued-job quotas); the zero value runs everything
	// as one unlimited default tenant.
	Tenants tenant.Config
}

// Service is the resident SCCG job service (paper §4 generalised to a
// device pool): a multi-device scheduler plus its HTTP API. It is what
// cmd/sccgd serves.
type Service struct {
	sched   *sched.Scheduler
	store   *Store
	srv     *server.Server
	cluster *cluster.Node
}

// NewService builds a running scheduler and its HTTP server. Close the
// service when done.
func NewService(opts ServiceOptions) *Service {
	// One registry is shared by the scheduler's shard pipelines (per-executor
	// accounting) and the HTTP server (request counters), so GET /metrics
	// exposes both.
	reg := metrics.NewRegistry()
	sc := sched.New(sched.Config{
		Devices:    opts.Devices,
		HybridCPU:  opts.HybridCPU,
		Workers:    opts.Workers,
		QueueDepth: opts.QueueDepth,
		Registry:   reg,
		// The scheduler enforces per-tenant queued-job quotas atomically at
		// enqueue; the closure keeps the scheduler tenant-config-agnostic.
		TenantQueueLimit: opts.Tenants.QueueLimit,
	})
	// Clustered mode: the peer node owns placement, peer-pull, and cluster
	// metrics. A bad peer configuration degrades to single-node operation
	// rather than failing the service.
	var node *cluster.Node
	if len(opts.Peers) > 0 && opts.Store != nil {
		n, err := cluster.New(cluster.Config{
			Self:     opts.Advertise,
			Peers:    opts.Peers,
			Store:    opts.Store,
			Registry: reg,
		})
		if err != nil {
			slog.Warn("cluster disabled", "err", err)
		} else {
			node = n
		}
	}
	return &Service{
		sched:   sc,
		store:   opts.Store,
		cluster: node,
		srv: server.New(sc, server.Options{
			CacheMaxEntries:  opts.CacheMaxEntries,
			Registry:         reg,
			Store:            opts.Store,
			Cluster:          node,
			QuerylogMaxBytes: opts.QuerylogMaxBytes,
			SlowQuery:        opts.SlowQuery,
			Tenants:          opts.Tenants,
			Retention:        opts.Retention,
		}),
	}
}

// Handler returns the service's HTTP routing table (POST /jobs,
// GET /jobs/{id}, GET /jobs, POST /compare, GET /metrics, GET /healthz).
// Finished jobs past the last 1024 are forgotten: their IDs answer 404.
func (s *Service) Handler() http.Handler { return s.srv.Handler() }

// Scheduler exposes the underlying job scheduler for in-process use.
func (s *Service) Scheduler() *sched.Scheduler { return s.sched }

// Store exposes the service's dataset store (nil when none is configured).
func (s *Service) Store() *Store { return s.store }

// SubmitStored queues a job over a stored dataset by content ID, bypassing
// HTTP (and the result cache). Shards materialize lazily from the store's
// tile segments; the dataset stays pinned against deletes and retention
// sweeps until the job's terminal state.
func (s *Service) SubmitStored(datasetID string) (string, error) {
	id, _, err := s.srv.SubmitStored(datasetID, datasetID)
	return id, err
}

// CompareStored queues a cross-dataset comparison job — dataset idA's set-A
// polygons against dataset idB's set-B polygons over their shared tile keys
// — bypassing HTTP (and, like SubmitStored, the result cache), with both
// datasets pinned until the job's terminal state. The match report says
// which tiles paired and which exist on only one side; with idA == idB the
// job is exactly the dataset's own embedded comparison.
func (s *Service) CompareStored(idA, idB string) (string, CrossMatch, error) {
	id, match, err := s.srv.SubmitStored(idA, idB)
	if err != nil {
		return "", match, fmt.Errorf("sccg: %w", err)
	}
	return id, match, nil
}

// SubmitMatrix starts a K-way similarity matrix run over stored dataset
// IDs: all K·(K−1)/2 pairwise cells as one cancellable run,
// deduplicated through the service's result cache. Poll with Matrix.
func (s *Service) SubmitMatrix(ids []string) (string, error) {
	return s.srv.SubmitMatrix(MatrixQuery{Datasets: ids})
}

// SubmitMatrixQuery starts a matrix run from the full request form: a
// symmetric run over Datasets or a bipartite SetA×SetB run, optionally
// progressive — TopK asks only for the K highest-similarity cells,
// MinSimilarity skips cells provably below it (elided cells finish
// "bounded"/"skipped" with a sound similarity upper bound instead of an
// exact report). Cells run in descending-bound order, plan order breaking
// ties. Poll with Matrix or long-poll with WaitMatrix.
func (s *Service) SubmitMatrixQuery(req MatrixQuery) (string, error) {
	return s.srv.SubmitMatrix(req)
}

// Matrix returns a matrix run's status snapshot by ID; finished runs past
// the last 64 are forgotten (resubmit one to answer its cells from cache).
func (s *Service) Matrix(id string) (MatrixStatus, bool) { return s.srv.Matrix(id) }

// WaitMatrix blocks until the run's status version exceeds since (pass the
// last snapshot's Version; 0 waits for anything past the plan phase), the
// run finishes, or ctx expires, and returns the freshest snapshot.
func (s *Service) WaitMatrix(ctx context.Context, id string, since int64) (MatrixStatus, bool) {
	return s.srv.WaitMatrix(ctx, id, since)
}

// CancelMatrix cancels a matrix run and its remaining member jobs.
func (s *Service) CancelMatrix(id string) error { return s.srv.CancelMatrix(id) }

// Job returns a job snapshot by ID; finished jobs past the last 1024 are forgotten.
func (s *Service) Job(id string) (JobStatus, bool) { return s.sched.Job(id) }

// GC runs one retention sweep immediately — evicting TTL-expired and
// over-budget unpinned datasets and cascading their cached reports — and
// reports what it evicted. It fails when the service has no dataset store.
func (s *Service) GC() (RetentionSweep, error) { return s.srv.GC() }

// Close stops matrix orchestration and the scheduler (queued jobs are
// canceled), then drains background report-persist writes — the scheduler
// must close first so every job the persisters wait on reaches a terminal
// state.
func (s *Service) Close() {
	s.srv.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.sched.Close()
	s.srv.Drain()
}

// ErrServiceClosed is returned by scheduler submissions after Close.
var ErrServiceClosed = sched.ErrClosed
