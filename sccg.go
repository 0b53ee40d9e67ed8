// Package sccg is the public facade of the SCCG reproduction — "Spatial
// Cross-comparison on CPUs and GPUs" (Wang et al., PVLDB 5(11), 2012).
//
// SCCG cross-compares two sets of segmented micro-anatomic object boundaries
// (rectilinear integer polygons extracted from pathology images) and reports
// their Jaccard similarity J' — the mean ratio of intersection area to union
// area over truly-intersecting polygon pairs. The heavy lifting is done by
// the PixelBox algorithm (internal/pixelbox) running on a simulated GPU
// (internal/gpu) or on CPU workers. CrossCompareDataset runs the paper's
// four-stage text pipeline with dynamic task migration (internal/pipeline);
// the job service (NewService, what cmd/sccgd serves) runs each stored tile
// in one pass and folds the tiles (internal/tilepass), to the same bits.
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
	"fmt"
	"runtime"

	"repro/internal/clip"
	"repro/internal/compare"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/jaccard"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
	"repro/internal/retention"
	"repro/internal/rtree"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tilepass"
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
	Report = tilepass.Result
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
// filter, aggregate; no text parsing) and returns J' with pair counts. A nil
// polygon is an error.
func (e *Engine) CrossComparePolygons(a, b []*Polygon) (similarity float64, intersecting, candidates int, err error) {
	pairs, _, err := MatchPairs(a, b)
	if err != nil {
		return 0, 0, 0, err
	}
	results, err := e.ComputeAreas(pairs)
	if err != nil {
		return 0, 0, 0, err
	}
	var acc jaccard.Accumulator
	acc.AddResults(results)
	sim, _ := acc.Similarity()
	return sim, acc.Intersecting(), acc.Candidates(), nil
}

// ComputeAreas computes exact intersection/union areas for polygon pairs
// using the configured backend. A pair holding a nil polygon is an error.
func (e *Engine) ComputeAreas(pairs []Pair) ([]AreaResult, error) {
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
// pair with intersecting MBRs (the filter stage) and the join's R-tree
// search statistics. A nil polygon is an error.
func MatchPairs(a, b []*Polygon) ([]Pair, SearchStats, error) {
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

// EncodeDataset converts a dataset into pipeline input tasks (text-encoded
// tiles, as segmentation emits them).
func EncodeDataset(d *Dataset) []FileTask {
	tasks := make([]FileTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		tasks[i] = FileTask{Image: tp.Image, Tile: tp.Index, RawA: parser.Encode(tp.A), RawB: parser.Encode(tp.B)}
	}
	return tasks
}

// OpenStore opens (creating if needed) the persistent dataset store rooted
// at dir, recovering previously ingested datasets by re-scanning their
// manifests.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// IngestDataset persists a generated dataset into the store under its spec
// name and returns its content-addressed manifest. Ingestion is idempotent:
// identical polygon content maps to the same dataset ID.
func IngestDataset(st *Store, d *Dataset) (*DatasetManifest, error) {
	tiles := make([]store.IngestTile, len(d.Pairs))
	for i, tp := range d.Pairs {
		tiles[i] = store.IngestTile{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	return st.Ingest(d.Spec.Name, tiles)
}

// ServiceOptions configures the resident cross-comparison job service; see
// OpenStore for its Store.
type ServiceOptions = server.ServiceOptions

// Service is the resident SCCG job service (paper §4 generalised to a
// device pool): a multi-device scheduler plus its HTTP API. It is what
// cmd/sccgd serves.
type Service = server.Service

// NewService builds a running scheduler and its HTTP server. Close the
// service when done.
func NewService(opts ServiceOptions) *Service { return server.NewService(opts) }

// ErrServiceClosed is returned by scheduler submissions after Close.
var ErrServiceClosed = sched.ErrClosed
