package server

import (
	"log/slog"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/retention"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/tenant"
)

// ServiceOptions configures the resident cross-comparison job service.
type ServiceOptions struct {
	// Devices is the simulated-GPU count, one tile worker each; 0 runs CPU
	// workers only.
	Devices int
	// HybridCPU runs the CPU workers beside the GPU workers.
	HybridCPU bool
	// Workers is the CPU worker count; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the job queue; 0 selects the scheduler default.
	QueueDepth int
	// CacheMaxEntries bounds the HTTP result store in keys; past it the least
	// recently used key goes, its persisted report included. 0 means
	// unbounded.
	CacheMaxEntries int
	// Store holds every dataset a job reads, and the persisted report cache
	// under its directory. It is required: NewService panics without one.
	Store *store.Store
	// Retention bounds the store: a byte budget over which
	// least-recently-used unpinned datasets are evicted (datasets referenced
	// by queued/running jobs are pinned and never evicted), a TTL for unused
	// datasets, and the background sweep period. The zero value bounds
	// nothing. Service.Close stops the sweeper.
	Retention retention.Policy
	// Peers, when non-empty, puts the service in clustered mode: datasets
	// missing locally are pulled peer-to-peer (digest-verified on arrival),
	// and the persisted result cache becomes a cluster-wide read-through.
	// Work computes on the node that was asked, matrix cells included. Each
	// entry is a peer base URL (host:port accepted).
	// Requires Advertise.
	Peers []string
	// Advertise is this node's own base URL as peers reach it; it anchors the
	// node's position in the rendezvous hash ring. Required with Peers.
	Advertise string
	// QuerylogMaxBytes bounds the persisted query/access log kept under the
	// store directory. 0 selects the 64 MiB default; negative disables the
	// log.
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
// device pool): the scheduler, the optional peer node and the HTTP server
// over them, built and closed in one order. It is what sccgd serves and
// what the sccg facade hands library users; the embedded Server supplies
// Handler and the in-process entry points.
type Service struct {
	*Server
	sched   *sched.Scheduler
	cluster *cluster.Node
}

// NewService builds a running scheduler and its HTTP server. Close the
// service when done.
func NewService(opts ServiceOptions) *Service {
	// One registry is shared by the scheduler's workers (per-executor
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
	// rather than failing the service; sccgd validates its addresses first.
	var node *cluster.Node
	if len(opts.Peers) > 0 {
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
		cluster: node,
		Server: New(sc, Options{
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

// Scheduler exposes the underlying job scheduler for in-process use.
func (s *Service) Scheduler() *sched.Scheduler { return s.sched }

// Store exposes the service's dataset store, the one ServiceOptions.Store set.
func (s *Service) Store() *store.Store { return s.Server.store }

// Job returns a job snapshot by ID; finished jobs past the last 1024 are
// forgotten.
func (s *Service) Job(id string) (sched.JobStatus, bool) { return s.sched.Job(id) }

// Close stops matrix orchestration and the scheduler (queued jobs are
// canceled), then drains background report-persist writes — the scheduler
// must close first so every job the persisters wait on reaches a terminal
// state.
func (s *Service) Close() {
	s.Server.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.sched.Close()
	s.Server.Drain()
}
