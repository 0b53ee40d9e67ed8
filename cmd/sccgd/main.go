// Command sccgd is the resident SCCG cross-comparison service: a daemon that
// owns a pool of simulated GPUs plus CPU pipeline workers and serves
// cross-comparison jobs over HTTP (the paper's §4 service generalised to a
// multi-device node with hybrid CPU+GPU aggregation). Each simulated GPU is
// one tile worker, and workers take jobs' tiles one at a time; without
// -devices the daemon runs one CPU worker per core.
//
//	sccgd -addr :8080 -devices 2 -workers 4 -hybrid-cpu -data-dir /var/lib/sccgd
//
// The daemon compares data, it does not make it: segmented polygon sets
// arrive through PUT /datasets, which stores them as WKB tile segments under
// a 64-hex content ID, and jobs name that ID. cmd/datagen writes the
// synthetic corpus together with each dataset's PUT body:
//
//	datagen -out ./data -dataset 5
//	curl -s -X PUT 'localhost:8080/datasets?name=oligoastroIII_1' \
//	     --data-binary @data/oligoastroIII_1/dataset.json      # -> {"id":"<id>",...}
//	curl -s -X POST localhost:8080/jobs -d '{"dataset_id":"<id>"}'
//	curl -s localhost:8080/jobs/job-000001
//
// A repeated submission of the same dataset is answered from the result
// store without touching the device pool; -cache-max-entries bounds it (LRU).
// It is the only long-lived record: finished jobs past the last 1024, and
// finished matrix runs past the last 64, are forgotten (their IDs answer 404).
// See GET /metrics for counters, including per-executor hybrid-aggregator
// accounting. Without -data-dir only uploaded polygon text ("tasks") and
// POST /compare run.
//
// Results are cached by content hash (and persisted beside the manifests,
// so a restart answers repeats without recompute), and a restart recovers
// every stored dataset from its manifest.
//
// The store also opens the cross-comparison workload — one algorithm's
// stored results against another's over the same tiles:
//
//	curl -s -X POST localhost:8080/jobs -d '{"dataset_a":"<id1>","dataset_b":"<id2>"}'
//	curl -s -X POST localhost:8080/matrix -d '{"datasets":["<id1>","<id2>","<id3>"]}'
//	curl -s localhost:8080/matrix/mx-000001
//	curl -s localhost:8080/datasets/<id1>/tiles/0
//
// Matrix runs answer progressive queries: "top_k" asks only for the K most
// similar cells (the rest may finish "bounded" with a sound upper bound
// instead of exact), "min_similarity" skips cells provably below a
// threshold, and "set_a"/"set_b" build an oriented rows×columns grid instead
// of a symmetric one. The planner bounds every cell from manifest stats
// before submitting any job, so provably-irrelevant cells cost index reads
// only. A bound drops below 1 only where matched tiles' set MBRs are disjoint
// or their set areas cannot overlap, so on same-image variants every bound is
// 1 and top_k computes every cell. Poll with ?wait=1&since=<version> to
// long-poll the next change:
//
//	curl -s -X POST localhost:8080/matrix \
//	     -d '{"datasets":["<id1>","<id2>","<id3>"],"top_k":1}'
//	curl -s 'localhost:8080/matrix/mx-000001?wait=1&since=0'
//
// Retention bounds keep a long-lived store from leaking disk: a byte budget
// LRU-evicts unpinned datasets (datasets referenced by queued/running jobs
// are pinned and never evicted), and a TTL expires unused ones. Evicted
// datasets cascade their cached reports, so a restart never resurrects
// results for deleted data:
//
//	sccgd -data-dir /var/lib/sccgd -store-max-bytes 2GiB -store-ttl 168h \
//	      -store-sweep 1m
//	curl -s -X POST localhost:8080/gc     # sweep now
//	curl -s -X DELETE localhost:8080/cache
//
// With -peers the daemon joins a cluster: any node accepts any request.
// Rendezvous hashing on dataset and cache-key content addresses ranks owners;
// a node asked about a dataset it doesn't hold pulls the segment+manifest
// peer-to-peer and digest-verifies every tile before publishing it locally,
// and the persisted result cache becomes a cluster-wide read-through. Work
// computes on the node that was asked: a matrix run pulls and pins its
// datasets there, and its cells compute there. Unreachable peers back off
// and the node carries on alone — clustering never makes a single node less
// capable:
//
//	sccgd -addr :8080 -data-dir /var/lib/sccgd \
//	      -peers host-b:8080,host-c:8080 -advertise host-a:8080
//
// Observability: with -data-dir every job (matrix cells included), ingest,
// and peer pull appends to a rotation-bounded JSONL query log (GET /querylog serves
// it filtered); -querylog-max-bytes bounds it and -querylog-max-bytes off disables it.
// -slow-query 2s warns (with the job's per-stage trace summary) on anything
// slower. In clustered mode traces propagate across nodes — a job that
// pulled a dataset shows the serving peer's spans in GET /jobs/{id}/trace. GET /metrics reports this node only; sum across
// nodes in the scraper:
//
//	sccgd -data-dir /var/lib/sccgd -slow-query 2s -querylog-max-bytes 128MiB
//	curl -s 'localhost:8080/querylog?outcome=computed&limit=50'
//	curl -s localhost:8080/metrics
//
// Multi-tenant QoS: jobs run in three priority bands — interactive (job
// submissions), batch (matrix cells), ingest (only when a request names it)
// — under weighted fair sharing at fixed weights 8:2:3, charged per tile, and
// batch tiles leave one core free, so a K-way matrix flood holds an
// interactive submission back by at most about one tile time. -tenants names token-keyed
// tenants with per-tenant byte, dataset, and queued-job quotas (unknown
// tokens fall into the default tenant); admission control consults the
// retention engine before accepting bytes, evicting synchronously or
// answering a structured 413 or a retryable 429 instead of overshooting
// -store-max-bytes:
//
//	sccgd -data-dir /var/lib/sccgd -store-max-bytes 2GiB \
//	      -tenants /etc/sccgd/tenants.json
//	curl -s -H 'Authorization: Bearer <token>' -X POST localhost:8080/jobs \
//	     -d '{"dataset_id":"<id>","band":"batch"}'
//	curl -s 'localhost:8080/querylog?tenant=alice'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/retention"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
)

// setupLogger installs the process-wide slog handler selected by -log-format.
// The service's HTTP server logs through slog.Default, so this is the single
// switch between human-readable and machine-parseable daemon logs.
func setupLogger(format string) error {
	switch format {
	case "text", "":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	default:
		return fmt.Errorf("-log-format must be text or json, got %q", format)
	}
	return nil
}

// pprofHandler routes the net/http/pprof pages on an explicit mux, so the
// diagnostics listener exposes profiling and nothing else (the default
// ServeMux — and any handlers other packages hung on it — stays unused).
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// retentionPolicy builds the retention policy from the raw flag values,
// rejecting malformed byte sizes and negative bounds.
func retentionPolicy(storeMax string, ttl, sweep time.Duration) (retention.Policy, error) {
	var pol retention.Policy
	if storeMax != "" {
		n, err := retention.ParseBytes(storeMax)
		if err != nil {
			return retention.Policy{}, fmt.Errorf("-store-max-bytes: %w", err)
		}
		pol.MaxBytes = n
	}
	if ttl < 0 {
		return retention.Policy{}, errors.New("-store-ttl must not be negative")
	}
	if sweep < 0 {
		return retention.Policy{}, errors.New("-store-sweep must not be negative")
	}
	pol.TTL = ttl
	pol.SweepInterval = sweep
	return pol, nil
}

// sweepInterval reports the effective background sweep period for logs.
func sweepInterval(pol retention.Policy) time.Duration {
	if pol.SweepInterval > 0 {
		return pol.SweepInterval
	}
	return time.Minute
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "sccgd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is canceled or the server
// fails. onReady, when non-nil, receives the bound listen address once the
// server is accepting connections — integration tests use it with an
// ephemeral ":0" address.
func run(ctx context.Context, args []string, onReady func(addr string)) error {
	fs := flag.NewFlagSet("sccgd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "HTTP listen address")
		devices   = fs.Int("devices", 0, "simulated GPUs, one tile worker each (0 = CPU workers only)")
		hybrid    = fs.Bool("hybrid-cpu", false, "run the CPU workers beside the GPU workers")
		workers   = fs.Int("workers", 0, "CPU tile workers, when -devices is 0 or with -hybrid-cpu (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 0, "job queue depth (default 64)")
		dataDir   = fs.String("data-dir", "", "persistent dataset store directory (enables /datasets and jobs by dataset_id)")
		storeMax  = fs.String("store-max-bytes", "", "store byte budget, e.g. 512MiB or 2GB; LRU-evicts unpinned datasets above it (empty = unbounded; needs -data-dir)")
		storeTTL  = fs.Duration("store-ttl", 0, "evict datasets unused for this long (0 = no TTL; needs -data-dir)")
		cacheMax  = fs.Int("cache-max-entries", 0, "result store bound in keys, LRU-evicted past it with their entry files (0 = unbounded)")
		sweep     = fs.Duration("store-sweep", 0, "retention sweep interval (default 1m when a retention bound is set)")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it off public interfaces)")
		peers     = fs.String("peers", "", "comma-separated peer base URLs; joins a cluster (needs -data-dir and -advertise)")
		advertise = fs.String("advertise", "", "this node's own base URL as peers reach it (required with -peers)")
		qlogMax   = fs.String("querylog-max-bytes", "", "query/access log size bound, e.g. 64MiB; 'off' disables the log (default 64MiB; needs -data-dir)")
		slowQuery = fs.Duration("slow-query", 0, "log a warning with the trace summary for jobs slower than this (0 = disabled)")
		tenantsFl = fs.String("tenants", "", "multi-tenant config: a JSON file path or inline JSON ({\"default\":{...},\"tenants\":[...]}); empty = one unlimited tenant")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if err := setupLogger(*logFormat); err != nil {
		return err
	}
	logger := slog.Default().With("component", "sccgd")
	pol, err := retentionPolicy(*storeMax, *storeTTL, *sweep)
	if err != nil {
		return err
	}
	if pol.Active() && *dataDir == "" {
		return errors.New("-store-max-bytes/-store-ttl require -data-dir")
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-devices", *devices}, {"-workers", *workers}, {"-queue", *queue}, {"-cache-max-entries", *cacheMax}} {
		if f.v < 0 {
			return fmt.Errorf("%s must not be negative", f.name)
		}
	}
	var qlogBytes int64
	switch *qlogMax {
	case "":
	case "off":
		qlogBytes = -1
	default:
		qlogBytes, err = retention.ParseBytes(*qlogMax)
		if err != nil {
			return fmt.Errorf("-querylog-max-bytes: %w", err)
		}
	}
	if *slowQuery < 0 {
		return errors.New("-slow-query must not be negative")
	}
	if qlogBytes > 0 && *dataDir == "" {
		return errors.New("-querylog-max-bytes requires -data-dir")
	}
	tenantCfg, err := tenant.LoadConfig(*tenantsFl)
	if err != nil {
		return fmt.Errorf("-tenants: %w", err)
	}
	var peerList []string
	if *peers != "" {
		if *dataDir == "" {
			return errors.New("-peers requires -data-dir (clustering replicates stored datasets)")
		}
		if *advertise == "" {
			return errors.New("-peers requires -advertise (this node's position in the hash ring)")
		}
		peerList, err = cluster.ParsePeers(*peers)
		if err != nil {
			return err
		}
		// A malformed address would make the service drop the cluster and
		// serve alone; refuse it here instead.
		if _, err := cluster.Normalize(*advertise); err != nil {
			return fmt.Errorf("-advertise %q: %w", *advertise, err)
		}
	}

	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir)
		if err != nil {
			return fmt.Errorf("open data dir: %w", err)
		}
		logger.Info("data dir opened", "dir", *dataDir, "recovered_datasets", st.Len())
		for _, serr := range st.Skipped() {
			logger.Warn("data dir: skipped unrecoverable dataset", "error", serr)
		}
	}

	svc := server.NewService(server.ServiceOptions{
		Devices:          *devices,
		HybridCPU:        *hybrid,
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheMaxEntries:  *cacheMax,
		Store:            st,
		Retention:        pol,
		Peers:            peerList,
		Advertise:        *advertise,
		QuerylogMaxBytes: qlogBytes,
		SlowQuery:        *slowQuery,
		Tenants:          tenantCfg,
	})
	defer svc.Close()
	if tenantCfg.Enabled() {
		logger.Info("multi-tenant QoS active", "tenants", len(tenantCfg.Tenants))
	}
	if pol.Active() {
		logger.Info("retention policy active", "policy", pol.String(), "sweep_interval", sweepInterval(pol).String())
	}
	if len(peerList) > 0 {
		logger.Info("cluster mode", "advertise", *advertise, "peers", len(peerList))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof diagnostics server binds its own listener so profiling is
	// never reachable through the public API address.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		pprofSrv = &http.Server{
			Handler:           pprofHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof server stopped", "error", err)
			}
		}()
		logger.Info("pprof serving", "addr", pln.Addr().String())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Info("serving",
		"addr", ln.Addr().String(),
		"devices", *devices,
		"hybrid_cpu", *hybrid,
		"workers", *workers,
	)
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Warn("shutdown", "error", err)
		}
		if pprofSrv != nil {
			_ = pprofSrv.Shutdown(shutCtx)
		}
		return nil
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
