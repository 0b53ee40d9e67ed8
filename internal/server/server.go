// Package server exposes the sched job scheduler over HTTP: the API surface
// of the sccgd daemon. It provides dataset ingest, job submission and
// polling, health and metrics endpoints, and a result store (results.go) so
// repeated cross-comparisons of the same input are answered without
// recomputation (and without further GPU launches).
//
//	POST   /jobs                    submit a cross-comparison job
//	GET    /jobs                    list live jobs plus the last 1024 finished
//	GET    /jobs/{id}               poll one job, report included when done
//	DELETE /jobs/{id}               cancel a queued or running job
//	PUT    /datasets                ingest a dataset into the store (streaming)
//	GET    /datasets                list stored datasets
//	GET    /datasets/{id}           stat one stored dataset
//	GET    /datasets/{id}/tiles/{n} read one stored tile's polygon text
//	DELETE /datasets/{id}           remove a stored dataset
//	POST   /matrix                  start a K-way similarity matrix run
//	GET    /matrix                  list running matrix runs plus the last 64 finished
//	GET    /matrix/{id}             poll one matrix run
//	GET    /matrix/{id}/cells/{i}/{j}  read one cell; ?exact=1 upgrades an elided cell
//	DELETE /matrix/{id}             cancel a matrix run
//	POST   /gc                      run one retention sweep now
//	DELETE /cache                   empty the result store
//	GET    /metrics                 counters and gauges in Prometheus text format
//	GET    /healthz                 liveness probe
//
// Every job names a stored dataset, so the result cache keys on dataset
// *content* hashes: a job by dataset_id and a cross job over the same stored
// polygons share one entry, and the ID's content addressing makes a hit exact
// by construction. The daemon compares data, it does not make it: datasets
// arrive through PUT /datasets (or a peer pull), never generated or parsed in
// the job path. Completed cache-keyed reports are additionally written
// through to one append-only log beside the store's manifests and replayed
// on boot, so a restarted daemon answers repeats without recompute.
//
// Cross-dataset jobs ({"dataset_a", "dataset_b"}) compare dataset_a's set-A
// polygons against dataset_b's set-B polygons over the tile keys the two
// datasets share; tiles present on only one side are reported in the job's
// "cross" block. K-way matrix runs (POST /matrix) fan all pairwise cells
// out through the same cache-aware submission path (see matrix.go).
//
// In clustered mode (Options.Cluster) the server additionally serves the
// peer-to-peer surface under /internal/ — dataset manifest/segment export and
// cache probes — and the submission path gains peer-pull of missing datasets
// plus a cluster-wide cache read-through layer (see cluster.go). Work always
// computes on the node that was asked, matrix cells included.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/compare"
	"repro/internal/metrics"
	"repro/internal/querylog"
	"repro/internal/retention"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/internal/tilepass"
	"repro/internal/trace"
)

// Options configures a Server.
type Options struct {
	// CacheMaxEntries bounds the result store (see results.go): past it the
	// least recently used key goes, log record included. 0 means unbounded.
	CacheMaxEntries int
	// Registry receives the server's counters; one is created when nil.
	Registry *metrics.Registry
	// Store holds every dataset a job reads and backs the /datasets
	// endpoints, matrix runs and the results log under <store>/cache. It is
	// required: New panics without one.
	Store *store.Store
	// Retention bounds the store (see internal/retention). When a byte
	// budget or TTL is set, New starts a background sweeper that Close
	// stops; POST /gc sweeps on demand either way.
	Retention retention.Policy
	// Cluster, when set, joins this server to a peer cluster: the internal
	// peer endpoints are served, missing datasets are pulled peer-to-peer
	// before jobs and matrix runs start, and the result cache gains a
	// cluster-wide read-through layer. The caller owns the node's lifecycle.
	Cluster *cluster.Node
	// QuerylogMaxBytes bounds the persisted query/access log under
	// <store>/querylog (active + one rotated generation). 0 selects the
	// 64 MiB default; negative disables the log.
	QuerylogMaxBytes int64
	// SlowQuery, when positive, emits a structured warning (with the job's
	// trace summary) for any job or cell slower than this threshold.
	SlowQuery time.Duration
	// Tenants is the multi-tenant QoS configuration: token-keyed tenant
	// identities with per-tenant byte, dataset, and queued-job quotas.
	// The zero value runs everything as one unlimited default tenant.
	Tenants tenant.Config
	// Logger receives the server's structured log records; slog.Default()
	// when nil.
	Logger *slog.Logger
}

// Server ties the scheduler, store, cache, and metrics into an
// http.Handler.
type Server struct {
	sched *sched.Scheduler
	store *store.Store
	// results owns every "is this comparison already known?" answer: the
	// result table and the delete cascade over it (see results.go).
	results *resultStore
	// matrix orchestrates K-way similarity matrix runs.
	matrix *compare.Manager
	// retention is the store GC policy engine. Its background sweeper (started only when the policy bounds something) is
	// owned by this server: New starts it, Close stops it.
	retention *retention.Engine
	// cluster is the peer layer; nil on a single-node daemon (see cluster.go).
	cluster *cluster.Node
	// qlog is the persisted query/access log; nil when disabled or when it
	// failed to open (see querylog_http.go for the routes).
	qlog      *querylog.Log
	slowQuery time.Duration
	reg       *metrics.Registry
	log       *slog.Logger
	started   time.Time
	// tenants resolves request tokens, and matrix runs' tenant names, to
	// quotas; the zero config is one unlimited default tenant.
	tenants tenant.Config
	// tusage attributes stored bytes/datasets to tenants, in its own record
	// log beside the manifests.
	tusage *tenant.Registry

	// watchWG tracks in-flight finishWhenDone goroutines so shutdown can
	// drain them instead of losing half-written result entries. watchMu
	// serializes spawning against Drain: once draining, no new watcher may
	// Add from zero concurrently with Wait.
	watchMu  sync.Mutex
	draining bool
	watchWG  sync.WaitGroup

	cacheHits   *metrics.Counter
	persistHits *metrics.Counter
	cacheMiss   *metrics.Counter
	ingests     *metrics.Counter
	ingestFails *metrics.Counter
	matrixRuns  *metrics.Counter
	cascades    *metrics.Counter
	// remoteHits is non-nil only when a cluster node is configured.
	remoteHits *metrics.Counter
}

// maxBodyBytes caps request bodies, PUT /datasets included.
const maxBodyBytes = 32 << 20

// New creates a server over the scheduler and opts.Store, which must be set.
func New(s *sched.Scheduler, opts Options) *Server {
	if opts.Store == nil {
		panic("server: Options.Store is nil; every job reads a stored dataset")
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	srv := &Server{
		sched: s,
		store: opts.Store,
		results: newResultStore(opts.CacheMaxEntries, opts.Store, s.Job,
			opts.Registry.Counter("sccgd_cache_evicted_total"), opts.Logger),
		reg:     opts.Registry,
		log:     opts.Logger,
		started: time.Now(),
		tenants: opts.Tenants,

		cacheHits:   opts.Registry.Counter("sccgd_cache_hits_total"),
		persistHits: opts.Registry.Counter("sccgd_cache_persisted_hits_total"),
		cacheMiss:   opts.Registry.Counter("sccgd_cache_misses_total"),
		ingests:     opts.Registry.Counter("sccgd_datasets_ingested_total"),
		ingestFails: opts.Registry.Counter("sccgd_dataset_ingest_failures_total"),
		matrixRuns:  opts.Registry.Counter("sccgd_matrix_runs_total"),
		cascades:    opts.Registry.Counter("sccgd_cache_cascade_dropped_total"),
	}
	// Result-store, scheduler, matrix and store metrics render from one
	// snapshot each per scrape and merge into the registry's sorted, typed
	// exposition.
	opts.Registry.OnScrape(func(e *metrics.Emitter) {
		slots, entries := srv.results.counts()
		e.Gauge("sccgd_cache_entries", float64(slots))
		e.Gauge("sccgd_cache_persisted_entries", float64(entries))
		st := srv.sched.Stats()
		e.Counter("sccgd_jobs_submitted_total", float64(st.Submitted))
		for _, d := range st.Devices {
			if d.Kind == tilepass.ExecGPU {
				e.Counter(metrics.Label("sccgd_device_launches_total", "device", d.ID), float64(d.Launches))
				e.Gauge(metrics.Label("sccgd_device_busy_seconds", "device", d.ID), d.BusySeconds)
			}
		}
		// Live matrix runs; a run's own progress is its GET /matrix/{id}.
		active := 0
		for _, run := range srv.matrix.Runs() {
			select {
			case <-run.Done():
			default:
				active++
			}
		}
		e.Gauge("sccgd_matrix_runs_active", float64(active))
		// QoS series: per-band and per-tenant queue/run occupancy from the
		// same scheduler snapshot, plus per-tenant store attribution. Labels
		// are band names and configured tenant names — bounded cardinality
		// (no per-job or per-request values).
		for b := sched.Band(0); b < sched.NumBands; b++ {
			e.Gauge(metrics.Label("sccgd_band_jobs_queued", "band", b.String()), float64(st.Bands[b].Queued))
			e.Gauge(metrics.Label("sccgd_band_jobs_running", "band", b.String()), float64(st.Bands[b].Running))
		}
		for name, tc := range st.Tenants {
			e.Gauge(metrics.Label("sccgd_tenant_jobs_queued", "tenant", name), float64(tc.Queued))
			e.Gauge(metrics.Label("sccgd_tenant_jobs_running", "tenant", name), float64(tc.Running))
		}
		e.Gauge("sccgd_datasets", float64(srv.store.Len()))
		for name, u := range srv.tusage.All() {
			e.Gauge(metrics.Label("sccgd_tenant_store_bytes", "tenant", name), float64(u.Bytes))
			e.Gauge(metrics.Label("sccgd_tenant_datasets", "tenant", name), float64(u.Datasets))
		}
	})
	if opts.Cluster != nil {
		srv.cluster = opts.Cluster
		srv.remoteHits = opts.Registry.Counter("sccgd_cluster_remote_cache_hits_total")
	}
	srv.slowQuery = opts.SlowQuery
	if opts.QuerylogMaxBytes >= 0 {
		ql, err := querylog.Open(filepath.Join(opts.Store.Dir(), "querylog"), opts.QuerylogMaxBytes)
		if err != nil {
			// A broken query log degrades observability only; the daemon runs.
			srv.log.Warn("query log disabled", "err", err)
		} else {
			srv.qlog = ql
			opts.Registry.OnScrape(func(e *metrics.Emitter) {
				e.Counter("sccgd_querylog_records_total", float64(ql.Appended()))
				e.Counter("sccgd_querylog_write_errors_total", float64(ql.WriteErrors()))
			})
		}
	}
	srv.store.SetMetrics(opts.Registry)
	// Tenant attribution is logged beside the manifests so a restarted
	// daemon still knows whose bytes are whose; an owner is only ever
	// charged for a dataset the store holds.
	srv.tusage = tenant.Open(opts.Store.Dir(), func(id string) bool {
		_, ok := srv.store.Get(id)
		return ok
	}, opts.Logger)
	// Every delete path — HTTP, forced, retention sweep — cascades
	// through the result store via the store's hook.
	srv.store.SetDeleteHook(srv.dropDatasetResults)
	srv.retention = retention.New(retention.Config{
		Store:    srv.store,
		Policy:   opts.Retention,
		Registry: opts.Registry,
		Log: func(format string, args ...any) {
			srv.log.Info(fmt.Sprintf(format, args...), "subsystem", "retention")
		},
	})
	srv.retention.Start() // no-op unless the policy bounds something
	srv.matrix = compare.NewManager(compare.ManagerConfig{
		Scheduler: s,
		Submit:    srv.submitCell,
		// The planner's bound reads manifests only and pins nothing —
		// the run holds pins on all its datasets for its whole lifetime.
		Bound: func(idA, idB string) (compare.CellBound, error) {
			return compare.BoundPair(srv.store, idA, idB)
		},
	})
	return srv
}

// Close stops background orchestration (matrix runs, the retention
// sweeper); it does not close the scheduler, which the caller owns. Call
// before closing the scheduler.
func (s *Server) Close() {
	s.matrix.Close()
	s.retention.Close()
}

// Drain blocks until background persist writes have finished; submissions
// that complete after Drain starts skip persisting. Persisters wait for
// their job's terminal state, so call this only after the scheduler has
// closed (which finalizes every job) — otherwise a persister waiting on a
// queued job would block Drain indefinitely.
func (s *Server) Drain() {
	s.watchMu.Lock()
	s.draining = true
	s.watchMu.Unlock()
	s.watchWG.Wait()
	// Only after every in-flight recorder goroutine has appended its record.
	if err := s.qlog.Close(); err != nil {
		s.log.Warn("query log close", "err", err)
	}
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		// The metric's route label is the mux pattern (bounded cardinality),
		// not the raw URL path.
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("POST /jobs", s.handleSubmit)
	handle("GET /jobs", s.handleList)
	handle("GET /jobs/{id}", s.handleJob)
	handle("GET /jobs/{id}/trace", s.handleJobTrace)
	handle("DELETE /jobs/{id}", s.handleCancel)
	handle("PUT /datasets", s.handlePutDataset)
	handle("GET /datasets", s.handleListDatasets)
	handle("GET /datasets/{id}", s.handleStatDataset)
	handle("GET /datasets/{id}/tiles/{n}", s.handleReadTile)
	handle("DELETE /datasets/{id}", s.handleDeleteDataset)
	handle("POST /matrix", s.handleStartMatrix)
	handle("GET /matrix", s.handleListMatrices)
	handle("GET /matrix/{id}", s.handleGetMatrix)
	handle("GET /matrix/{id}/cells/{i}/{j}", s.handleMatrixCell)
	handle("DELETE /matrix/{id}", s.handleCancelMatrix)
	handle("POST /gc", s.handleGC)
	handle("DELETE /cache", s.handleClearCache)
	handle("GET /querylog", s.handleQuerylog)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /healthz", s.handleHealthz)
	if s.cluster != nil {
		// The peer-to-peer surface (see cluster.go). Served only in
		// clustered mode; a single-node daemon exposes no internal routes.
		handle("GET /internal/datasets/{id}/manifest", s.handleClusterManifest)
		handle("GET /internal/datasets/{id}/segment", s.handleClusterSegment)
		handle("GET /internal/results/{a}/{b}", s.handleClusterResult)
	}
	return mux
}

// statusWriter captures the response status for the request-duration metric.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request accounting: a per-route,
// per-status duration histogram, whose _count is the request count. Series
// are created lazily on first (route, status) occurrence, so an idle server
// exposes no empty series.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.reg.Histogram(metrics.Label("sccgd_http_request_duration_seconds",
			"route", route, "status", strconv.Itoa(sw.status))).ObserveSince(start)
	}
}

// JobRequest submits one cross-comparison job over stored datasets; polygon
// text enters only through PUT /datasets. Exactly one input form must be
// set: DatasetID (one dataset's set A against its set B), or the
// DatasetA/DatasetB pair (a cross-dataset comparison: A's set-A polygons
// against B's set-B polygons over their shared tile keys).
type JobRequest struct {
	DatasetID string `json:"dataset_id,omitempty"`
	DatasetA  string `json:"dataset_a,omitempty"`
	DatasetB  string `json:"dataset_b,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
	// Band optionally overrides the job's QoS band ("interactive", "batch",
	// "ingest"); unset runs the job as interactive.
	Band string `json:"band,omitempty"`
}

// CrossPayload describes a cross-dataset job's tile pairing: how many tile
// keys matched and what fell outside the intersection — unmatched tiles are
// reported, never silently dropped.
type CrossPayload struct {
	DatasetA     string `json:"dataset_a"`
	DatasetB     string `json:"dataset_b"`
	MatchedTiles int    `json:"matched_tiles"`
	UnmatchedA   int    `json:"unmatched_a"`
	UnmatchedB   int    `json:"unmatched_b"`
	// Samples carry at most crossSampleKeys unmatched keys per side, enough
	// to locate a divergence without ballooning job responses.
	UnmatchedASample []compare.TileKey `json:"unmatched_a_sample,omitempty"`
	UnmatchedBSample []compare.TileKey `json:"unmatched_b_sample,omitempty"`
}

const crossSampleKeys = 8

// crossPayload summarizes a tile match for the wire.
func crossPayload(idA, idB string, m compare.Match) *CrossPayload {
	cp := &CrossPayload{
		DatasetA:     idA,
		DatasetB:     idB,
		MatchedTiles: len(m.Pairs),
		UnmatchedA:   len(m.OnlyA),
		UnmatchedB:   len(m.OnlyB),
	}
	cp.UnmatchedASample = append(cp.UnmatchedASample, m.OnlyA[:min(len(m.OnlyA), crossSampleKeys)]...)
	cp.UnmatchedBSample = append(cp.UnmatchedBSample, m.OnlyB[:min(len(m.OnlyB), crossSampleKeys)]...)
	return cp
}

// ExecutorPayload is the JSON projection of one hybrid-aggregator
// executor's accounting.
type ExecutorPayload struct {
	ID          string  `json:"id"`
	Kind        string  `json:"kind"`
	Batches     int64   `json:"batches"`
	Pairs       int64   `json:"pairs"`
	BusyMillis  float64 `json:"busy_millis"`
	PairsPerSec float64 `json:"pairs_per_sec"`
}

// ReportPayload is the JSON projection of a folded comparison result.
type ReportPayload struct {
	Similarity     float64           `json:"similarity"`
	Intersecting   int               `json:"intersecting"`
	Candidates     int               `json:"candidates"`
	Tiles          int               `json:"tiles"`
	PairsOnGPU     int               `json:"pairs_on_gpu"`
	PairsOnCPU     int               `json:"pairs_on_cpu"`
	TasksToCPU     int64             `json:"tasks_migrated_to_cpu"`
	TasksToGPU     int64             `json:"tasks_migrated_to_gpu"`
	KernelLaunches int64             `json:"kernel_launches"`
	DeviceSeconds  float64           `json:"device_seconds"`
	WallMillis     float64           `json:"wall_millis"`
	Executors      []ExecutorPayload `json:"executors,omitempty"`
}

func reportPayload(r tilepass.Result) *ReportPayload {
	p := &ReportPayload{
		Similarity:     r.Similarity,
		Intersecting:   r.Intersecting,
		Candidates:     r.Candidates,
		Tiles:          r.Stats.TilesProcessed,
		PairsOnGPU:     r.Stats.PairsOnGPU,
		PairsOnCPU:     r.Stats.PairsOnCPU,
		TasksToCPU:     r.Stats.TasksToCPU,
		TasksToGPU:     r.Stats.TasksToGPU,
		KernelLaunches: r.Stats.KernelLaunches,
		DeviceSeconds:  r.Stats.DeviceSeconds,
		WallMillis:     float64(r.Stats.WallTime.Microseconds()) / 1000,
	}
	for _, e := range r.Stats.Executors {
		p.Executors = append(p.Executors, ExecutorPayload{
			ID:          e.ID,
			Kind:        e.Kind,
			Batches:     e.Batches,
			Pairs:       e.Pairs,
			BusyMillis:  float64(e.Busy.Microseconds()) / 1000,
			PairsPerSec: e.PairsPerSec,
		})
	}
	return p
}

// JobResponse is the wire form of a job snapshot.
type JobResponse struct {
	ID        string         `json:"id"`
	Name      string         `json:"name,omitempty"`
	State     string         `json:"state"`
	Cached    bool           `json:"cached,omitempty"`
	Error     string         `json:"error,omitempty"`
	Submitted time.Time      `json:"submitted"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
	Tiles     int            `json:"tiles"`
	DeviceIDs []string       `json:"device_ids,omitempty"`
	Cross     *CrossPayload  `json:"cross,omitempty"`
	Report    *ReportPayload `json:"report,omitempty"`
	Trace     *trace.Trace   `json:"trace,omitempty"`
	// Band and Tenant are the job's QoS placement.
	Band   string `json:"band,omitempty"`
	Tenant string `json:"tenant,omitempty"`
}

// jobResponse projects a job snapshot to the wire, attaching cross-dataset
// pairing metadata when the job is a cross comparison.
func (s *Server) jobResponse(st sched.JobStatus, cached bool) JobResponse {
	resp := JobResponse{
		ID:        st.ID,
		Name:      st.Name,
		State:     st.State.String(),
		Cached:    cached,
		Error:     st.Error,
		Submitted: st.Submitted,
		Tiles:     st.Tiles,
		DeviceIDs: st.DeviceIDs,
	}
	resp.Band = st.Band.String()
	resp.Tenant = st.Tenant
	if !st.Started.IsZero() {
		t := st.Started
		resp.Started = &t
	}
	if !st.Finished.IsZero() {
		t := st.Finished
		resp.Finished = &t
	}
	if st.State == sched.Done {
		resp.Report = reportPayload(st.Report)
	}
	resp.Trace = st.Trace
	resp.Cross, _ = st.Meta.(*CrossPayload) // a cross job's pairing rides on its record
	return resp
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := s.decode(w, r, &req); err != nil {
		return
	}
	who := s.resolveTenant(r)
	sub, err := s.submitRequestAs(req, who)
	if err != nil {
		s.failSubmit(w, who, sub.code, err)
		return
	}
	writeJSON(w, sub.code, sub.resp)
}

// failSubmit writes a submitRequestAs error: admission rejections and a full
// tenant queue as structured bodies, anything else under code.
func (s *Server) failSubmit(w http.ResponseWriter, who tenant.Quota, code int, err error) {
	var aerr *admissionError
	if errors.As(err, &aerr) {
		s.failAdmission(w, who, aerr)
		return
	}
	if errors.Is(err, sched.ErrTenantQueue) {
		s.admissionRejected("tenant_queue")
		w.Header().Set("Retry-After", "5")
		writeJSON(w, code, map[string]string{
			"error": err.Error(), "code": "tenant_queue", "tenant": who.Name,
		})
		return
	}
	s.fail(w, code, err)
}

// submission is the outcome of one job-submission request, shared by the
// HTTP handlers and the matrix orchestrator's cell submitter.
type submission struct {
	resp JobResponse
	code int
	// jobID is the live scheduler job behind resp; empty when a persisted
	// report answered without one.
	jobID string
	// report is the full comparison result for persisted-cache answers.
	report *tilepass.Result
	// outcome is the querylog classification of how this submission was
	// answered (querylog.Outcome*); peer is set for cluster-cache answers.
	outcome string
	peer    string
}

// submitRequestAs resolves a job request through the result store or submits
// it to the scheduler under the given tenant identity. On error,
// submission.code carries the HTTP status. The tenant rides the whole
// lifecycle: admission, scheduler accounting and query-log records.
func (s *Server) submitRequestAs(req JobRequest, who tenant.Quota) (submission, error) {
	reqStart := time.Now()
	if err := checkRequest(req); err != nil {
		return submission{code: http.StatusBadRequest}, err
	}
	band, err := bandFor(req)
	if err != nil {
		return submission{code: http.StatusBadRequest}, err
	}
	// Look the request up before materializing it: a cache hit must not pay
	// for store reads or pins.
	key := ""
	if !req.NoCache {
		key = cacheKey(req)
		if sub, ok := s.resolveCached(key); ok {
			s.recordJobSub(req, sub, reqStart, who, band)
			return sub, nil
		}
	}

	// The recorder starts here so the trace covers pre-scheduler time:
	// peer pulls, pinning and store opens all land in the materialize span
	// (with pin sub-spans recorded inside).
	rec := trace.NewRecorder()
	matStart := time.Now()
	mat, err := s.materializeRequest(rec, req)
	rec.Add("materialize", requestForm(req), matStart, time.Now())
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, store.ErrNotFound) {
			code = http.StatusNotFound
		}
		return submission{code: code}, err
	}
	if key != "" {
		s.cacheMiss.Inc()
	}
	id, err := s.sched.SubmitJob(mat.src, sched.JobOpts{
		Name: mat.name, Band: band, Tenant: who.Name, Trace: rec, Meta: mat.cross,
	})
	if err != nil {
		releaseSource(mat.src)
		return submission{code: submitErrorCode(err)}, err
	}
	s.log.Info("job submitted", "job_id", id, "name", mat.name, "form", requestForm(req),
		"band", band.String(), "tenant", who.Name)
	if key != "" {
		s.results.record(key, id)
	}
	// One completion watcher per computed job: it moves a cache-keyed report
	// into the result table (the scheduler forgets finished jobs), appends the
	// query-log record, and flags slow queries. The draining check under the
	// mutex keeps the Add from racing Drain's Wait.
	if key != "" || s.qlog != nil || s.slowQuery > 0 {
		s.watchMu.Lock()
		if !s.draining {
			s.watchWG.Add(1)
			go func() {
				defer s.watchWG.Done()
				s.finishWhenDone(rec, key, id, req)
			}()
		}
		s.watchMu.Unlock()
	}
	st, _ := s.sched.Job(id)
	return submission{resp: s.jobResponse(st, false), code: http.StatusAccepted, jobID: id}, nil
}

// recordJobSub appends a query-log record for a cache-answered submission
// (computed jobs are recorded by their completion watcher instead).
func (s *Server) recordJobSub(req JobRequest, sub submission, start time.Time, who tenant.Quota, band sched.Band) {
	if s.qlog == nil || sub.outcome == "" {
		return
	}
	rec := querylog.Record{
		Kind:       querylog.KindJob,
		ID:         sub.resp.ID,
		TraceID:    traceIDOf(sub.resp.Trace),
		Tenant:     who.Name,
		Band:       band.String(),
		Datasets:   s.requestIO(req),
		DurationMs: float64(time.Since(start).Microseconds()) / 1000,
		Outcome:    sub.outcome,
		Peer:       sub.peer,
	}
	s.qlog.Append(rec)
}

// requestIO lists the datasets a request touches, with tile counts resolved
// from local manifests when available.
func (s *Server) requestIO(req JobRequest) []querylog.DatasetIO {
	var ids []string
	switch {
	case req.DatasetA != "":
		ids = []string{req.DatasetA}
		if req.DatasetB != req.DatasetA {
			ids = append(ids, req.DatasetB)
		}
	case req.DatasetID != "":
		ids = []string{req.DatasetID}
	default:
		return nil
	}
	out := make([]querylog.DatasetIO, 0, len(ids))
	for _, id := range ids {
		io := querylog.DatasetIO{ID: id}
		if man, ok := s.store.Get(id); ok {
			io.Tiles = len(man.Tiles)
		}
		out = append(out, io)
	}
	return out
}

// traceIDOf extracts the trace ID of a wire trace, "" when absent.
func traceIDOf(t *trace.Trace) string {
	if t == nil {
		return ""
	}
	return t.TraceID
}

// resolveCached answers a cache key from this node's result store, then — in
// clustered mode — the cluster-wide read-through layer (owner peers' stores,
// see cluster.go). A key whose job the scheduler knows answers as that job
// (finished or still in flight); an entry with no live job as a synthesized
// done response.
func (s *Server) resolveCached(key string) (submission, bool) {
	job, e, ok := s.results.lookup(key)
	if !ok {
		if s.cluster != nil {
			return s.remoteResult(key)
		}
		return submission{}, false
	}
	s.cacheHits.Inc()
	if job.ID != "" {
		return submission{resp: s.jobResponse(job, true), code: http.StatusOK, jobID: job.ID,
			outcome: querylog.OutcomeCached}, true
	}
	s.persistHits.Inc()
	return entrySubmission(e, querylog.OutcomePersisted), true
}

// entrySubmission answers a submission from a finished entry with no live job
// behind it (a persisted or peer hit). The response ID is stable for the key
// but not pollable — the response already carries the full report.
func entrySubmission(e *resultEntry, outcome string) submission {
	saved := e.Saved
	return submission{code: http.StatusOK, report: &e.Report, outcome: outcome,
		resp: JobResponse{
			ID:        cachedID(e.Key),
			Name:      e.Name,
			State:     sched.Done.String(),
			Cached:    true,
			Submitted: saved,
			Finished:  &saved,
			Tiles:     e.Report.Stats.TilesProcessed,
			Cross:     e.Cross,
			Report:    reportPayload(e.Report),
		}}
}

// finishWhenDone waits for a submitted job's terminal state and runs the
// completion bookkeeping: a cache-keyed Done job's report enters its result
// slot, with or without a log record (the append and the fsync that carried
// it land in the trace as a persist span, its detail the number of records
// that fsync carried — recorded after the scheduler froze the trace total, so it
// shows up in later trace reads without shifting the job's wall time), the
// query-log record, and the slow-query warning.
func (s *Server) finishWhenDone(rec *trace.Recorder, key, jobID string, req JobRequest) {
	st, err := s.sched.Wait(context.Background(), jobID)
	if err != nil {
		return
	}
	if key != "" && st.State == sched.Done {
		start := time.Now()
		cross, _ := st.Meta.(*CrossPayload)
		_, carried, perr := s.results.adopt(resultEntry{Key: key, Name: st.Name, Cross: cross, Saved: start.UTC(), Report: st.Report}, key)
		detail := ""
		if carried > 0 {
			detail = "fsync records=" + strconv.Itoa(carried)
		}
		rec.Add("persist", detail, start, time.Now())
		if perr != nil {
			s.log.Warn("job report failed validation, not persisted", "job_id", jobID, "err", perr)
		}
	}
	outcome := querylog.OutcomeComputed
	if st.State != sched.Done {
		outcome = querylog.OutcomeFailed
	}
	dur := st.Finished.Sub(st.Submitted)
	if s.qlog != nil {
		s.qlog.Append(querylog.Record{
			Kind:       querylog.KindJob,
			ID:         jobID,
			TraceID:    rec.Context().TraceIDString(),
			Tenant:     st.Tenant,
			Band:       st.Band.String(),
			Datasets:   s.requestIO(req),
			DurationMs: float64(dur.Microseconds()) / 1000,
			Outcome:    outcome,
			Error:      st.Error,
		})
	}
	if s.slowQuery > 0 && dur > s.slowQuery {
		s.log.Warn("slow query", "job_id", jobID, "name", st.Name,
			"tenant", st.Tenant, "band", st.Band.String(),
			"duration_ms", float64(dur.Microseconds())/1000,
			"threshold_ms", float64(s.slowQuery.Microseconds())/1000,
			"outcome", outcome, "trace", trace.Summarize(st.Trace))
	}
}

// submitCell is the matrix orchestrator's cell submitter: one pairwise
// cross-dataset job through the full cache-aware submission path — this
// node's result table, then (clustered) the peers' tables, then a job on this
// node, which the run has already made hold and pin both datasets. Cells are
// batch work under the run's tenant: a K-way flood must never starve
// concurrent interactive jobs of the fair-share scheduler.
func (s *Server) submitCell(idA, idB, tenantName string) (compare.SubmitOutcome, error) {
	who, ok := s.tenants.ByName(tenantName)
	if !ok {
		who = s.tenants.Resolve("")
	}
	sub, err := s.submitRequestAs(JobRequest{DatasetA: idA, DatasetB: idB, Band: sched.BandBatch.String()}, who)
	if err != nil {
		return compare.SubmitOutcome{}, err
	}
	return cellOutcome(sub), nil
}

// cellOutcome projects a submission to the matrix engine's contract.
func cellOutcome(sub submission) compare.SubmitOutcome {
	out := compare.SubmitOutcome{
		JobID:  sub.jobID,
		Cached: sub.resp.Cached,
		Trace:  sub.resp.Trace,
		Report: sub.report,
		Tiles:  sub.resp.Tiles,
	}
	if cross := sub.resp.Cross; cross != nil {
		out.Tiles = cross.MatchedTiles
		out.UnmatchedA = cross.UnmatchedA
		out.UnmatchedB = cross.UnmatchedB
	}
	return out
}

// datasetKey is the result-cache key of a content-addressed dataset: the
// content hash itself, namespaced apart from cross keys.
func datasetKey(id string) string { return "dataset\x00" + id }

// crossKey is the result-cache key of a cross-dataset comparison. The key
// is ordered — cross(a,b) compares a's set A against b's set B, a different
// comparison from cross(b,a) — except that a self-comparison IS the
// dataset's own embedded A-vs-B job, so it shares the single-dataset key
// (and therefore its cache entries, in both directions).
func crossKey(idA, idB string) string {
	if idA == idB {
		return datasetKey(idA)
	}
	return "cross\x00" + idA + "\x00" + idB
}

// cacheKey resolves a checked request to its result-cache key without
// materializing anything: every form keys on content hashes directly.
func cacheKey(req JobRequest) string {
	if req.DatasetID != "" {
		return datasetKey(req.DatasetID)
	}
	return crossKey(req.DatasetA, req.DatasetB)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	out := make([]JobResponse, len(jobs))
	for i, st := range jobs {
		out[i] = s.jobResponse(st, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, sched.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, s.jobResponse(st, false))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := s.sched.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, sched.ErrNotFound):
		s.fail(w, http.StatusNotFound, err)
	case errors.Is(err, sched.ErrTerminal):
		s.fail(w, http.StatusConflict, err)
	case err != nil:
		s.fail(w, http.StatusInternalServerError, err)
	default:
		st, _ := s.sched.Job(r.PathValue("id"))
		writeJSON(w, http.StatusOK, s.jobResponse(st, false))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Everything — counters, gauges, histograms, and the scheduler/group
	// scrape collector registered in New — renders through the registry's
	// sorted, typed exposition.
	_ = s.reg.WriteText(w)
}

// buildRevision resolves the binary's VCS revision from the embedded build
// info, "" when built outside a checkout.
func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev := ""
	dirty := false
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			dirty = kv.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "-dirty"
	}
	return rev
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cfg := s.sched.Config()
	devs := s.sched.DeviceStats()
	workers := make([]map[string]any, len(devs))
	for i, d := range devs {
		workers[i] = map[string]any{"id": d.ID, "kind": d.Kind}
	}
	resp := map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"started":        s.started.UTC().Format(time.RFC3339),
		"go_version":     runtime.Version(),
		"workers":        len(devs),
		"gpus":           cfg.Devices,
		"scheduler": map[string]any{
			"workers":     workers,
			"hybrid_cpu":  cfg.HybridCPU,
			"queue_depth": cfg.QueueDepth,
		},
		"qos": map[string]any{
			"multi_tenant": s.tenants.Enabled(),
			"tenants":      len(s.tenants.Tenants),
		},
	}
	if rev := buildRevision(); rev != "" {
		resp["revision"] = rev
	}
	resp["store"] = map[string]any{
		"datasets": s.store.Len(),
		"dir":      s.store.Dir(),
	}
	if s.cluster != nil {
		resp["cluster"] = s.cluster.Health()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobTrace serves a job's stage-span breakdown. Live jobs answer with
// the spans recorded so far; finished jobs answer the frozen trace (plus any
// post-finish spans like persist).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, sched.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job_id": st.ID,
		"state":  st.State.String(),
		"trace":  st.Trace,
	})
}

// checkRequest validates a JobRequest without materializing it (no store
// reads), so it is cheap to run before the cache lookup.
func checkRequest(req JobRequest) error {
	if (req.DatasetA != "") != (req.DatasetB != "") {
		return errors.New("dataset_a and dataset_b must be set together")
	}
	if (req.DatasetID != "") == (req.DatasetA != "") {
		return errors.New("exactly one of dataset_id, dataset_a+dataset_b must be set")
	}
	if req.DatasetID != "" {
		if !store.ValidateID(req.DatasetID) {
			return fmt.Errorf("dataset_id %q is not a content hash (64 lowercase hex digits)", req.DatasetID)
		}
		return nil
	}
	if !store.ValidateID(req.DatasetA) {
		return fmt.Errorf("dataset_a %q is not a content hash (64 lowercase hex digits)", req.DatasetA)
	}
	if !store.ValidateID(req.DatasetB) {
		return fmt.Errorf("dataset_b %q is not a content hash (64 lowercase hex digits)", req.DatasetB)
	}
	return nil
}

// requestForm names a request's input form for log attrs and trace details.
func requestForm(req JobRequest) string {
	if req.DatasetA != "" {
		return "cross"
	}
	return "dataset"
}

// materialized is the outcome of materializeRequest: the task source to
// run plus the submission metadata resolved along the way.
type materialized struct {
	name string
	src  sched.TaskSource
	// cross is the tile-pairing metadata of a cross-dataset job.
	cross *CrossPayload
}

// materializeRequest turns a checked JobRequest into the task source to
// run. Dataset jobs come back as lazy store tile handles; cross-dataset
// jobs as lazy tile-pair handles over the two segment files (cross carries
// the pairing report). Pin acquisition is recorded into rec.
func (s *Server) materializeRequest(rec *trace.Recorder, req JobRequest) (materialized, error) {
	if req.DatasetA != "" {
		// Pin before opening: after Pin succeeds no delete or retention
		// sweep can remove the dataset, so the open below cannot race an
		// eviction. The pinned wrapper unpins at the job's terminal state.
		ids := pairIDs(req.DatasetA, req.DatasetB)
		if err := s.ensureLocal(rec, ids...); err != nil {
			return materialized{}, err
		}
		pinStart := time.Now()
		name, csrc, match, self, err := s.openPairPinned(req.DatasetA, req.DatasetB)
		rec.Add("pin", "pair", pinStart, time.Now())
		if err != nil {
			return materialized{}, err
		}
		for _, id := range ids {
			s.store.Touch(id)
		}
		m := materialized{name: name, src: csrc}
		if !self {
			// A self-comparison is the dataset's own embedded A-vs-B job
			// (same cache key, bit-identical report), so no cross block:
			// the response contract must not depend on which request form
			// populated the shared cache entry.
			m.cross = crossPayload(req.DatasetA, req.DatasetB, match)
		}
		return m, nil
	}
	if err := s.ensureLocal(rec, req.DatasetID); err != nil {
		return materialized{}, err
	}
	pinStart := time.Now()
	src, man, err := s.openDatasetPinned(req.DatasetID)
	rec.Add("pin", "dataset", pinStart, time.Now())
	if err != nil {
		return materialized{}, err
	}
	s.store.Touch(man.ID)
	return materialized{name: man.DisplayName(), src: src}, nil
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return err
	}
	return nil
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
