package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	sccg "repro"
	"repro/internal/cluster"
	"repro/internal/compare"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
	"repro/internal/querylog"
	"repro/internal/retention"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wkb"
)

// The probes below time single layers outside the ladder: entry points the
// cold job does not pass through, or passes through in a form the ladder
// cannot isolate.

// probeKernels times the two aggregate kernels the ladder's rung 4 does not
// use. They run on a quarter of v0's pairs: they are several times slower
// than the parallel CPU kernel and only their rate is reported.
func (s *suite) probeKernels() {
	var pairs []pixelbox.Pair
	s.aside(false, func() {
		tasks := polyTasks(s.c.pool[0], s.c.pool[0])
		for _, t := range tasks[:len(tasks)/4] {
			p, _ := s.tilePairs(t, 0, 0)
			pairs = append(pairs, p...)
		}
	})
	dev := gpu.NewDevice(gpu.GTX580())
	var launch gpu.LaunchResult
	var launches int64
	for r := 0; r < s.reps(8); r++ {
		s.timed("pixelbox.run_cpu", "pixelbox", r, 0, func() { pixelbox.RunCPU(pairs, pixelbox.CPUConfig{}) })
		before := dev.Launches()
		s.timed("pixelbox.run_gpu", "pixelbox", r, 0, func() { _, launch, _ = pixelbox.RunGPU(dev, pairs, pixelbox.Config{}) })
		launches = dev.Launches() - before
	}
	n := float64(len(pairs))
	s.setRate("pixelbox.cpu_pairs_per_s", "pixelbox.run_cpu", n, "1/s")
	s.setRate("pixelbox.gpu_host_pairs_per_s", "pixelbox.run_gpu", n, "1/s")
	// Modelled device figures: computed counts, reported beside the host
	// wall above and never added to it.
	s.set("gpu.device_s_per_kpair", launch.DeviceSeconds/(n/1e3), "s", 1)
	s.set("gpu.global_bytes_per_pair", float64(launch.Counters.GlobalBytes)/n, "B", 1)
	s.set("gpu.warp_instrs_per_pair", float64(launch.Counters.WarpInstrs)/n, "count", 1)
	s.set("gpu.launches_per_call", float64(launches), "count", 1)
}

// probePipeline runs the pipeline's other executor mixes over v0 as the store
// hands it out: CPU-only (what cluster_3node's nodes run), GPU-only, and the
// paper's text path.
func (s *suite) probePipeline() {
	ds, err := s.st.OpenDataset(s.poolID[0])
	must(err)
	src := ds.Source()
	tasks := make([]pipeline.PolyTask, src.Len())
	files := make([]pipeline.FileTask, src.Len())
	for i := range tasks {
		tasks[i], err = src.PolyTask(i)
		must(err)
		files[i] = pipeline.FileTask{Image: tasks[i].Image, Tile: tasks[i].Tile,
			RawA: parser.Encode(tasks[i].A), RawB: parser.Encode(tasks[i].B)}
	}
	warm := pipeline.NewThroughputMemory()
	var text pipeline.Result
	var parserMS []float64
	for r := 0; r < s.reps(6); r++ {
		s.timed("pipeline.run_cpu", "pipeline", r, 0, func() {
			res, err := pipeline.RunParsed(tasks, pipeline.Config{})
			s.checkResult("cpu pipeline", res, err)
		})
		s.timed("pipeline.run_gpu", "pipeline", r, 0, func() {
			res, err := pipeline.RunParsed(tasks, pipeline.Config{Devices: gpu.NewDevices(1, gpu.GTX580())})
			s.checkResult("gpu pipeline", res, err)
		})
		// The paper's path: text tiles through the parser stage, hybrid
		// aggregation, dynamic migration. No HTTP workload takes it.
		s.timed("pipeline.run_text", "pipeline", r, 0, func() {
			cfg := hybridConfig(warm)
			cfg.Migration = true
			text, err = pipeline.Run(files, cfg)
			s.checkResult("text pipeline", text, err)
			parserMS = append(parserMS, text.Stats.ParserBusy.Seconds()*1e3)
		})
	}
	pairs := float64(text.Stats.PairsFiltered)
	s.setRate("pipeline.cpu_pairs_per_s", "pipeline.run_cpu", pairs, "1/s")
	s.setRate("pipeline.gpu_pairs_per_s", "pipeline.run_gpu", pairs, "1/s")
	s.setRate("pipeline.text_pairs_per_s", "pipeline.run_text", pairs, "1/s")
	s.set("pipeline.parser_busy_ms", median(parserMS), "ms", len(parserMS))

	half := len(tasks) / 2
	a, err := pipeline.RunParsed(tasks[:half], pipeline.Config{})
	must(err)
	b, err := pipeline.RunParsed(tasks[half:], pipeline.Config{})
	must(err)
	for r := 0; r < s.reps(30); r++ {
		s.timed("pipeline.merge", "pipeline", r, 0, func() {
			s.checkResult("merge", pipeline.Merge(a, b), nil)
		})
	}
	s.setTime("pipeline.merge_us", "pipeline.merge", "us")
}

// waitJob waits for a scheduler job and checks it is done.
func waitJob(sc *sched.Scheduler, id string) sched.JobStatus {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	st, err := sc.Wait(ctx, id)
	must(err)
	if st.State != sched.Done {
		panic(fmt.Sprintf("job %s ended %s: %s", id, st.State, st.Error))
	}
	return st
}

// tileSlice is the first n tiles of a stored dataset as a job source.
type tileSlice struct {
	src *store.DatasetSource
	n   int
}

func (t *tileSlice) Len() int                                  { return t.n }
func (t *tileSlice) Weight(i int) int64                        { return t.src.Weight(i) }
func (t *tileSlice) Task(i int) (pipeline.FileTask, error)     { return t.src.Task(i) }
func (t *tileSlice) PolyTask(i int) (pipeline.PolyTask, error) { return t.src.PolyTask(i) }

// probeSched puts the scheduler under the two kinds of load the workloads
// put on it.
func (s *suite) probeSched() {
	ds, err := s.st.OpenDataset(s.poolID[0])
	must(err)

	// cold_single's contention: two submitters, one slot.
	sc := s.svc.Scheduler()
	var mu sync.Mutex
	var waits []float64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < s.reps(8); r++ {
				id, err := sc.SubmitJob(ds.Source(), sched.JobOpts{Name: "contend"})
				if err != nil {
					return // the count reported beside the median shows the loss
				}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				st, err := sc.Wait(ctx, id)
				cancel()
				if err != nil || st.State != sched.Done {
					return
				}
				mu.Lock()
				waits = append(waits, st.Started.Sub(st.Submitted).Seconds()*1e3)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.set("sched.queue_wait_p50_ms", median(waits), "ms", len(waits))

	// matrix_qos's contention: an interactive job behind 16 queued batch
	// jobs on two slots, one of them reserved for interactive work. The
	// jobs are a quarter of v0, so a round stays short.
	sc2 := sched.New(sched.Config{Devices: 2, HybridCPU: true})
	defer sc2.Close()
	small := &tileSlice{src: ds.Source(), n: ds.Source().Len() / 4}
	var probeWaits []float64
	for r := 0; r < s.reps(5); r++ {
		var batch []string
		for b := 0; b < 16; b++ {
			id, err := sc2.SubmitJob(small, sched.JobOpts{Name: "batch", Band: sched.BandBatch})
			must(err)
			batch = append(batch, id)
		}
		id, err := sc2.SubmitJob(small, sched.JobOpts{Name: "probe", Band: sched.BandInteractive})
		must(err)
		st := waitJob(sc2, id)
		probeWaits = append(probeWaits, st.Started.Sub(st.Submitted).Seconds()*1e3)
		for _, b := range batch {
			waitJob(sc2, b)
		}
	}
	s.set("sched.probe_wait_p50_ms", median(probeWaits), "ms", len(probeWaits))

	// One batch job — what a matrix cell is — split over both slots: how
	// evenly the shards finish.
	before := sc2.DeviceStats()
	id, err := sc2.SubmitJob(ds.Source(), sched.JobOpts{Name: "skew", Band: sched.BandBatch})
	must(err)
	waitJob(sc2, id)
	var maxWall, sum float64
	after := sc2.DeviceStats()
	for i := range after {
		w := (after[i].Wall - before[i].Wall).Seconds()
		sum += w
		if w > maxWall {
			maxWall = w
		}
	}
	s.set("sched.slot_skew", maxWall/(sum/float64(len(after))), "ratio", 1)
}

// probeServer times the handler's request kinds other than the cold job.
func (s *suite) probeServer() {
	h := s.svc.Handler()
	v0 := s.poolID[0]

	jv, code := inprocJob(h, jobBody(v0, v0, false)) // computes, fills both tiers
	s.checkJob(jv, code, http.StatusAccepted)
	for r := 0; r < s.reps(200); r++ {
		s.timed("server.poll", "server", r, 0, func() { inproc(h, http.MethodGet, "/jobs/"+jv.ID, nil, nil) })
		s.timed("server.hit_lru", "server", r, 0, func() {
			hit, code := inprocJob(h, jobBody(v0, v0, false))
			s.checkJob(hit, code, http.StatusOK)
		})
	}
	s.setTime("server.poll_us", "server.poll", "us")
	s.setTime("server.hit_lru_us", "server.hit_lru", "us")

	f := s.c.filler(storeFillers) // not in the store yet
	body := f.body()
	for r := 0; r < s.reps(8); r++ {
		var resp struct {
			ID string `json:"id"`
		}
		s.timed("server.put", "server", r, 0, func() { inproc(h, http.MethodPut, "/datasets?name="+f.name, body, &resp) })
		must(s.st.Delete(resp.ID)) // so that the next PUT writes it again
	}
	s.setRate("server.put_mb_per_s", "server.put", float64(s.c.textBytes)/1e6, "MB/s")

	for r := 0; r < s.reps(20); r++ {
		s.timed("server.metrics_scrape", "server", r, 0, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("GET /metrics: %d", rec.Code))
			}
		})
	}
	s.setTime("server.metrics_scrape_ms", "server.metrics_scrape", "ms")
	s.svc.Close() // drains v0's report to disk

	// A second service over the same directory knows that report only from
	// disk: the persisted tier.
	st2, err := store.Open(s.st.Dir())
	must(err)
	svc2 := sccg.NewService(sccg.ServiceOptions{Devices: 1, HybridCPU: true, Store: st2})
	defer svc2.Close()
	h2 := svc2.Handler()
	for r := 0; r < s.reps(200); r++ {
		s.timed("server.hit_persisted", "server", r, 0, func() {
			hit, code := inprocJob(h2, jobBody(v0, v0, false))
			if !strings.HasPrefix(hit.ID, "cached-") {
				panic("persisted-tier probe was answered by job " + hit.ID)
			}
			s.checkJob(hit, code, http.StatusOK)
		})
	}
	s.setTime("server.hit_persisted_us", "server.hit_persisted", "us")
}

// probeStore times the store's own entry points.
func (s *suite) probeStore() {
	scratch, err := store.Open(filepath.Join(s.dir, "ingest"))
	must(err)
	var segment, manifest int64
	for r := 0; r < s.reps(8); r++ {
		f := s.c.filler(1000 + r)
		tiles := f.ingestTiles()
		var man *store.Manifest
		s.timed("store.ingest", "store", r, 0, func() {
			w, err := scratch.NewWriter(f.name)
			must(err)
			for _, t := range tiles {
				must(w.AddTile(t.Image, t.Tile, t.A, t.B))
			}
			man, err = w.Commit()
			must(err)
		})
		fi, err := os.Stat(filepath.Join(scratch.Dir(), man.ID, "manifest.json"))
		must(err)
		segment, manifest = man.SegmentBytes, fi.Size()
	}
	s.setRate("store.ingest_mb_per_s", "store.ingest", float64(s.c.textBytes)/1e6, "MB/s")
	s.set("store.bytes_per_text_byte", float64(segment+manifest)/float64(s.c.textBytes), "ratio", 1)

	for r := 0; r < s.reps(10); r++ {
		s.timed("store.open", "store", r, 0, func() {
			st, err := store.Open(s.st.Dir())
			must(err)
			if st.Len() != storeFillers+poolSize {
				panic(fmt.Sprintf("store.Open recovered %d datasets, want %d", st.Len(), storeFillers+poolSize))
			}
		})
	}
	s.setTime("store.open_ms", "store.open", "ms")

	a, err := s.st.OpenDataset(s.poolID[0])
	must(err)
	b, err := s.st.OpenDataset(s.poolID[1])
	must(err)
	cr := store.NewCrossReader(a, b)
	for r := 0; r < s.reps(3); r++ {
		for i := 0; i < corpusTiles; i++ {
			s.timed("store.read_pair", "store", r, 0, func() {
				_, _, err := cr.ReadPair(i, i)
				must(err)
			})
		}
	}
	s.setTime("store.read_pair_us", "store.read_pair", "us")
}

// probeRetention sweeps a store holding twice its budget. The datasets are
// two-tile slices: a sweep's cost is per victim, not per byte.
func (s *suite) probeRetention() {
	const held = 16
	st, err := store.Open(filepath.Join(s.dir, "retention"))
	must(err)
	for r := 0; r < s.reps(8); r++ {
		for k := 0; k < held; k++ {
			f := s.c.filler(2000 + r*held + k)
			_, err := st.Ingest(f.name, f.ingestTiles()[:2])
			must(err)
		}
		eng := retention.New(retention.Config{Store: st, Policy: retention.Policy{MaxBytes: st.TotalBytes() / 2}})
		var sw retention.Sweep
		s.timed("retention.sweep", "retention", r, 0, func() { sw = eng.Sweep() })
		if sw.BudgetEvicted == 0 {
			panic("retention sweep evicted nothing from a store twice over budget")
		}
		for _, man := range st.List() {
			must(st.Delete(man.ID))
		}
	}
	s.setTime("retention.sweep_ms", "retention.sweep", "ms")
}

// probeCodecs times the two codecs over v0: WKB both ways, text one way.
func (s *suite) probeCodecs() {
	var polys, text int
	v0 := s.c.pool[0]
	raws := make([][]byte, 0, 2*len(v0.tiles))
	for _, t := range v0.tiles {
		raws = append(raws, parser.Encode(t.a), parser.Encode(t.b))
		polys += len(t.a) + len(t.b)
	}
	for _, raw := range raws {
		text += len(raw)
	}
	recs := make([][]byte, 0, polys)
	for r := 0; r < s.reps(15); r++ {
		recs = recs[:0]
		s.timed("wkb.marshal", "wkb", r, 0, func() {
			for _, t := range v0.tiles {
				for _, p := range t.a {
					recs = append(recs, wkb.Marshal(p))
				}
				for _, p := range t.b {
					recs = append(recs, wkb.Marshal(p))
				}
			}
		})
		s.timed("wkb.unmarshal", "wkb", r, 0, func() {
			for _, rec := range recs {
				_, err := wkb.Unmarshal(rec)
				must(err)
			}
		})
		s.timed("parser.parse", "parser", r, 0, func() {
			for _, raw := range raws {
				_, err := parser.Parse(raw)
				must(err)
			}
		})
	}
	s.setRate("wkb.marshal_mpolys_per_s", "wkb.marshal", float64(polys)/1e6, "M/s")
	s.setRate("wkb.unmarshal_mpolys_per_s", "wkb.unmarshal", float64(polys)/1e6, "M/s")
	s.setRate("parser.parse_mb_per_s", "parser.parse", float64(text)/1e6, "MB/s")
}

// probeCompare times matrix planning and a whole 6-way matrix in-process.
func (s *suite) probeCompare() {
	manA, _ := s.st.Get(s.poolID[0])
	manB, _ := s.st.Get(s.poolID[1])
	for r := 0; r < s.reps(200); r++ {
		s.timed("compare.match", "compare", r, 0, func() {
			if m := compare.MatchManifests(manA, manB); len(m.Pairs) != corpusTiles {
				panic("pool variants do not share their tile keys")
			}
		})
		s.timed("compare.bound_pair", "compare", r, 0, func() {
			_, err := compare.BoundPair(s.st, s.poolID[0], s.poolID[1])
			must(err)
		})
	}
	s.setTime("compare.match_us", "compare.match", "us")
	s.setTime("compare.bound_pair_us", "compare.bound_pair", "us")

	// matrix_qos's daemon: two slots, cells in the batch band.
	svc := sccg.NewService(sccg.ServiceOptions{Devices: 2, HybridCPU: true, Store: s.st})
	defer svc.Close()
	h := svc.Handler()
	for r := 0; r < s.reps(3); r++ {
		inproc(h, http.MethodDelete, "/cache", nil, nil)
		s.timed("compare.matrix", "compare", r, 0, func() {
			id, err := svc.SubmitMatrix(s.poolID[:])
			must(err)
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			for since := int64(0); ; {
				st, ok := svc.WaitMatrix(ctx, id, since)
				if !ok || ctx.Err() != nil {
					panic("matrix " + id + " lost or stuck")
				}
				if st.State != compare.RunRunning {
					if st.State != compare.RunDone || st.ExactCells != poolSize*(poolSize-1)/2 {
						panic(fmt.Sprintf("matrix %s ended %s with %d exact cells", id, st.State, st.ExactCells))
					}
					return
				}
				since = st.Version
			}
		})
	}
	s.setTime("compare.matrix_ms", "compare.matrix", "ms")
	inproc(h, http.MethodDelete, "/cache", nil, nil)
}

// node is one in-process cluster member on a real loopback listener.
type node struct {
	svc *sccg.Service
	srv *http.Server
}

func (s *suite) startNode(name string, ln net.Listener, peers []string) *node {
	st, err := store.Open(filepath.Join(s.dir, name))
	must(err)
	svc := sccg.NewService(sccg.ServiceOptions{Devices: 0, Store: st, Peers: peers, Advertise: "http://" + ln.Addr().String()})
	srv := &http.Server{Handler: svc.Handler()}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at close
	return &node{svc: svc, srv: srv}
}

func (n *node) close() {
	n.srv.Close()
	n.svc.Close()
}

// probeCluster times the two things only cluster_3node does: a result
// served by another node's cache, and a peer pull.
func (s *suite) probeCluster() {
	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		must(err)
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	holder := s.startNode("holder", lns[0], urls[1:])
	defer holder.close()
	asker := s.startNode("asker", lns[1], urls[:1])
	defer asker.close()

	// The holder computes each dataset once, so its cache holds the result.
	ids := make([]string, s.reps(12))
	for r := range ids {
		f := s.c.filler(3000 + r)
		man, err := holder.svc.Store().Ingest(f.name, f.ingestTiles())
		must(err)
		ids[r] = man.ID
		jv, code := inprocJob(holder.svc.Handler(), jobBody(man.ID, man.ID, false))
		_, err = checkJob(jv, code, http.StatusAccepted, s.wantFiller)
		must(err)
	}
	h := asker.svc.Handler()
	for r, id := range ids {
		s.timed("server.hit_remote", "server", r, 0, func() {
			jv, code := inprocJob(h, jobBody(id, id, false))
			_, err := checkJob(jv, code, http.StatusOK, s.wantFiller)
			must(err)
		})
	}
	s.setTime("server.hit_remote_ms", "server.hit_remote", "ms")

	// A bare cluster node with an empty store of its own pulls the same
	// datasets from the holder.
	pst, err := store.Open(filepath.Join(s.dir, "puller"))
	must(err)
	puller, err := cluster.New(cluster.Config{Self: "http://127.0.0.1:1", Peers: urls[:1], Store: pst})
	must(err)
	defer puller.Close()
	var bytes int64
	for r, id := range ids {
		s.timed("cluster.pull", "cluster", r, 0, func() {
			res, err := puller.PullDatasetCtx(context.Background(), id)
			must(err)
			bytes = res.Bytes
		})
	}
	s.setRate("cluster.pull_mb_per_s", "cluster.pull", float64(bytes)/1e6, "MB/s")
}

// probeObservability times the instruments every request pays for.
func (s *suite) probeObservability() {
	ql, err := querylog.Open(filepath.Join(s.dir, "querylog"), 0)
	must(err)
	rec := querylog.Record{
		Kind: querylog.KindJob, ID: "job-000001", Tenant: "default", Band: "interactive",
		Datasets:   []querylog.DatasetIO{{ID: s.poolID[0], Tiles: corpusTiles, Bytes: 2 << 20}},
		DurationMs: 0.3, Outcome: querylog.OutcomeCached,
	}
	for r := 0; r < s.reps(500); r++ {
		s.timed("querylog.append", "querylog", r, 0, func() { ql.Append(rec) })
	}
	must(ql.Close())
	s.setTime("querylog.append_us", "querylog.append", "us")

	// A span add and a histogram observation take tens of nanoseconds: time
	// a thousand per span.
	const batch = 1000
	tr := trace.NewRecorder()
	now := time.Now()
	hist := metrics.NewRegistry().Histogram("bench_seconds")
	for r := 0; r < s.reps(50); r++ {
		s.timed("trace.add_x1000", "trace", r, 0, func() {
			for i := 0; i < batch; i++ {
				tr.Add("execute", "slot0 shard0", now, now)
			}
		})
		s.timed("metrics.observe_x1000", "metrics", r, 0, func() {
			for i := 0; i < batch; i++ {
				hist.Observe(0.001 * float64(i))
			}
		})
	}
	s.set("trace.add_ns", s.med("trace.add_x1000")*1e9/batch, "ns", len(s.dur["trace.add_x1000"]))
	s.set("metrics.observe_ns", s.med("metrics.observe_x1000")*1e9/batch, "ns", len(s.dur["metrics.observe_x1000"]))

	stages := []string{"materialize", "queue", "shard", "execute", "merge", "persist"}
	job := trace.NewRecorder()
	for i := 0; i < 40; i++ {
		job.Add(stages[i%len(stages)], "", now, now.Add(time.Millisecond))
	}
	snap := job.Snapshot()
	for r := 0; r < s.reps(500); r++ {
		s.timed("trace.summarize", "trace", r, 0, func() { trace.Summarize(snap) })
	}
	s.setTime("trace.summarize_us", "trace.summarize", "us")

	// A registry the size of a busy daemon's: sccgd has 69 families.
	reg := metrics.NewRegistry()
	for i := 0; i < 60; i++ {
		reg.Counter(fmt.Sprintf("bench_family_%d_total", i)).Add(int64(i))
	}
	for i := 0; i < 9; i++ {
		h := reg.Histogram(metrics.Label("bench_seconds", "route", fmt.Sprint(i)))
		for j := 0; j < 100; j++ {
			h.Observe(0.001 * float64(j))
		}
	}
	for r := 0; r < s.reps(50); r++ {
		s.timed("metrics.expose", "metrics", r, 0, func() { must(reg.WriteText(io.Discard)) })
	}
	s.setTime("metrics.expose_ms", "metrics.expose", "ms")
}

// probeTraceOverhead runs one scripted sequence — the filter and the
// single-thread kernel per tile, about a hundred spans a pass — with span
// recording on and off, alternating which goes first.
func (s *suite) probeTraceOverhead() {
	tasks := polyTasks(s.c.pool[0], s.c.pool[0])
	pass := func() {
		for _, t := range tasks {
			pairs, _ := s.tilePairs(t, 0, 0)
			s.timed("overhead.kernel", "pixelbox", 0, 0, func() { pixelbox.RunCPU(pairs, pixelbox.CPUConfig{}) })
		}
	}
	var on, off []float64
	for r := 0; r < s.reps(8); r++ {
		for _, spansOn := range []bool{r%2 == 0, r%2 != 0} {
			start := time.Now()
			s.aside(spansOn, pass)
			if d := time.Since(start).Seconds(); spansOn {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	s.set("bench.trace_overhead_ratio", median(on)/median(off)-1, "ratio", len(on))
}
