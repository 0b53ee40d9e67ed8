package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	sccg "repro"
	"repro/internal/gpu"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
	"repro/internal/rtree"
	"repro/internal/sched"
	"repro/internal/store"
)

// The layer suite is the traced run. It drives each layer's public entry
// points in-process from one goroutine and records a span around every call;
// nothing inside internal/ is instrumented. A per-layer metric is the median
// over the spans of one name. The cold job is timed at every boundary from
// the HTTP socket down to the kernels, so each layer's self time is the
// difference between two neighbouring rungs and the rungs sum to the
// end-to-end figure.

// span is one timed call, as written to trace.json.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Request int     `json:"request"`
	Parent  int     `json:"parent"` // 0: none
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recording is what timed calls leave behind.
type recording struct {
	spans []span
	dur   map[string][]float64 // span name -> seconds, in call order
}

// suite is the state the probes share.
type suite struct {
	c       *corpus
	h       *harness
	dir     string
	seconds float64

	t0      time.Time
	spansOn bool // off: calls are timed but leave no span
	recording

	out    map[string]metric
	n      map[string]int // repetitions behind each metric
	checks int            // answers compared with the oracle

	// The system under the probes: the store the single-node workloads run
	// on, and the service `sccgd -devices 1 -hybrid-cpu` would build over it.
	st         *store.Store
	svc        *sccg.Service
	poolID     [poolSize]string
	want       answer // v0's own job
	wantFiller answer // every filler's job
}

// timed runs fn as one span.
func (s *suite) timed(name, layer string, request, parent int, fn func()) {
	s.timedParent(name, layer, request, parent, func(int) { fn() })
}

// timedParent runs fn as one span and hands it the span's ID, for the spans
// fn starts itself.
func (s *suite) timedParent(name, layer string, request, parent int, fn func(id int)) {
	id := len(s.spans) + 1
	if s.spansOn {
		s.spans = append(s.spans, span{ID: id, Name: name, Layer: layer, Request: request, Parent: parent})
	}
	start := time.Now()
	fn(id)
	end := time.Now()
	if s.spansOn {
		sp := &s.spans[id-1]
		sp.StartUS = float64(start.Sub(s.t0).Nanoseconds()) / 1e3
		sp.EndUS = float64(end.Sub(s.t0).Nanoseconds()) / 1e3
	}
	s.dur[name] = append(s.dur[name], end.Sub(start).Seconds())
}

// aside runs fn with a scratch recording, so that what it times stays out of
// the trace and the metrics.
func (s *suite) aside(spansOn bool, fn func()) {
	kept, keptOn := s.recording, s.spansOn
	s.recording, s.spansOn = recording{dur: map[string][]float64{}}, spansOn
	fn()
	s.recording, s.spansOn = kept, keptOn
}

// reps scales a probe's repetition count with --seconds; base is the count
// at the declared run length of 15 s.
func (s *suite) reps(base int) int {
	n := int(float64(base) * s.seconds / 15)
	if n < 3 {
		n = 3
	}
	return n
}

// med is the median duration, in seconds, of the spans called name.
func (s *suite) med(name string) float64 { return median(s.dur[name]) }

// set reports one metric backed by n repetitions.
func (s *suite) set(name string, value float64, unit string, n int) {
	s.out[name] = metric{value, unit}
	s.n[name] = n
}

// setTime reports the median span duration under name in the given unit.
func (s *suite) setTime(metricName, spanName, unit string) {
	scale := map[string]float64{"s": 1, "ms": 1e3, "us": 1e6, "ns": 1e9}[unit]
	s.set(metricName, s.med(spanName)*scale, unit, len(s.dur[spanName]))
}

// setRate reports units per median span duration.
func (s *suite) setRate(metricName, spanName string, units float64, unit string) {
	s.set(metricName, units/s.med(spanName), unit, len(s.dur[spanName]))
}

func must(err error) {
	if err != nil {
		panic(err) // runLayers turns it back into an error
	}
}

// runLayers runs every probe and returns the per-layer metrics. The suite is
// the same whatever the workload: label only says which run asked for it.
func runLayers(h *harness, label string, seed int64, seconds float64) (res *runResult, err error) {
	dir, err := h.dataDir("layers")
	if err != nil {
		return nil, err
	}
	// The layers log through slog; keep their chatter out of the report.
	logf, err := os.Create(filepath.Join(h.logs, "layers.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(logf, nil)))
	defer slog.SetDefault(prev)

	s := &suite{
		c: newCorpus(seed), h: h, dir: dir, seconds: seconds,
		t0: time.Now(), spansOn: true, recording: recording{dur: map[string][]float64{}},
		out: map[string]metric{}, n: map[string]int{},
	}
	// Probes report a broken layer by panicking with its error.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("layer suite: %v", p)
		}
	}()
	s.want, err = oracle(s.c.pool[0], s.c.pool[0])
	must(err)
	s.wantFiller, err = oracle(s.c.base, s.c.base)
	must(err)
	s.openStore()
	for _, probe := range []func(){
		s.probeLadder, s.probeKernels, s.probePipeline, s.probeSched, s.probeServer,
		s.probeStore, s.probeRetention, s.probeCodecs, s.probeCompare, s.probeCluster,
		s.probeObservability, s.probeTraceOverhead,
	} {
		probe()
	}
	raw, err := json.Marshal(map[string]any{"seed": seed, "spans": s.spans})
	must(err)
	must(os.WriteFile(filepath.Join(h.root, "benchmark", "out", "trace.json"), raw, 0o644))
	must(os.RemoveAll(dir))
	// A wrong answer anywhere panics above, so every check made has passed.
	return &runResult{Workload: label, Seed: seed, Seconds: seconds, Attempted: s.checks, Metrics: s.out, Samples: s.n}, nil
}

func (d *dataset) ingestTiles() []store.IngestTile {
	tiles := make([]store.IngestTile, len(d.tiles))
	for i, t := range d.tiles {
		tiles[i] = store.IngestTile{Image: d.image, Tile: t.index, A: t.a, B: t.b}
	}
	return tiles
}

// openStore builds the store the single-node workloads run on — fillers
// first, then the pool — and the service over it.
func (s *suite) openStore() {
	var err error
	s.st, err = store.Open(filepath.Join(s.dir, "store"))
	must(err)
	for k := 0; k < storeFillers; k++ {
		f := s.c.filler(k)
		_, err := s.st.Ingest(f.name, f.ingestTiles())
		must(err)
	}
	for v, ds := range s.c.pool {
		man, err := s.st.Ingest(ds.name, ds.ingestTiles())
		must(err)
		s.poolID[v] = man.ID
	}
	s.svc = sccg.NewService(sccg.ServiceOptions{Devices: 1, HybridCPU: true, Store: s.st})
}

// tilePairs builds both R-trees of a tile and joins them, as the pipeline's
// builder and filter stages do.
func (s *suite) tilePairs(t pipeline.PolyTask, request, parent int) ([]pixelbox.Pair, rtree.SearchStats) {
	var ta, tb *rtree.Tree
	s.timed("rtree.build", "rtree", request, parent, func() {
		ea := make([]rtree.Entry, len(t.A))
		for i, p := range t.A {
			ea[i] = rtree.Entry{MBR: p.MBR(), ID: int32(i)}
		}
		eb := make([]rtree.Entry, len(t.B))
		for i, p := range t.B {
			eb[i] = rtree.Entry{MBR: p.MBR(), ID: int32(i)}
		}
		ta, tb = rtree.Build(ea, rtree.Options{}), rtree.Build(eb, rtree.Options{})
	})
	var pairs []pixelbox.Pair
	var stats rtree.SearchStats
	s.timed("rtree.join", "rtree", request, parent, func() {
		var joined []rtree.Pair
		joined, stats = rtree.Join(ta, tb, nil)
		pairs = make([]pixelbox.Pair, len(joined))
		for i, pr := range joined {
			pairs[i] = pixelbox.Pair{P: t.A[pr.A], Q: t.B[pr.B]}
		}
	})
	return pairs, stats
}

// hybridConfig is the shard pipeline of `sccgd -devices 1 -hybrid-cpu`.
func hybridConfig(warm *pipeline.ThroughputMemory) pipeline.Config {
	return pipeline.Config{
		Devices:        gpu.NewDevices(1, gpu.GTX580()),
		CPUAggregators: 2,
		ExecutorLabel:  "slot0/",
		Warmth:         warm,
	}
}

func (s *suite) checkResult(what string, res pipeline.Result, err error) {
	must(err)
	s.checks++
	if got := (answer{res.Similarity, res.Candidates, res.Intersecting}); !got.equal(s.want) {
		panic(fmt.Sprintf("%s: answer %+v differs from the oracle's %+v", what, got, s.want))
	}
}

func (s *suite) checkJob(jv jobView, code, wantCode int) {
	_, err := checkJob(jv, code, wantCode, s.want)
	must(err)
	s.checks++
}

// inproc sends one request straight into a handler, with no socket.
func inproc(h http.Handler, method, path string, body []byte, out any) int {
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if rec.Code/100 != 2 {
		panic(fmt.Sprintf("%s %s: %d %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String())))
	}
	if out != nil {
		must(json.Unmarshal(rec.Body.Bytes(), out))
	}
	return rec.Code
}

// inprocJob is runJob against a handler: submit, then poll as a client does.
func inprocJob(h http.Handler, body []byte) (jobView, int) {
	var jv jobView
	code := inproc(h, http.MethodPost, "/jobs", body, &jv)
	for jv.State == "queued" || jv.State == "running" {
		time.Sleep(pollEvery)
		inproc(h, http.MethodGet, "/jobs/"+jv.ID, nil, &jv)
	}
	return jv, code
}

// probeLadder times one cold job over v0 at five boundaries, top to bottom
// within each repetition so that drift hits every rung alike:
//
//	rung 0  a real sccgd over loopback, one idle client — what cold_single's
//	        clients see when they do not queue behind each other
//	rung 1  server.Handler(), no socket, same polling
//	rung 2  sched.SubmitJob + Wait on the stored dataset's source
//	rung 3  DatasetSource.PolyTask x 32, then pipeline.RunParsed (hybrid)
//	rung 4  rtree.Build/Join per tile, then PixelBox-CPU over all pairs
//
// A layer's self time is the median of the per-repetition differences
// between its rung and the next, so the rows sum to rung 0 up to medians not
// commuting with sums; what rung 0 has above rung 1 is http.unattributed_ms.
func (s *suite) probeLadder() {
	dir, err := s.h.dataDir("rung0")
	must(err)
	addrs, err := freeAddrs(1)
	must(err)
	d, err := s.h.start("rung0", addrs[0], dir, "-devices", "1", "-hybrid-cpu")
	must(err)
	remote, err := putDataset(d.url, s.c.pool[0], s.c.pool[0].body())
	must(err)

	v0 := s.poolID[0]
	h := s.svc.Handler()
	ds, err := s.st.OpenDataset(v0)
	must(err)
	src := ds.Source()
	warm := pipeline.NewThroughputMemory()
	tasks := make([]pipeline.PolyTask, 0, src.Len())
	pairs := make([]pixelbox.Pair, 0, s.want.candidates)
	var tested int
	var gpuShare, builderMS, filterMS, aggregatorMS []float64

	rungs := []struct {
		name, layer string
		run         func(r, id int)
	}{
		{"ladder.http", "sccgd", func(int, int) {
			jv, code, err := runJob(d.url, jobBody(remote, remote, true))
			must(err)
			s.checkJob(jv, code, http.StatusAccepted)
		}},
		{"ladder.handler", "server", func(int, int) {
			jv, code := inprocJob(h, jobBody(v0, v0, true))
			s.checkJob(jv, code, http.StatusAccepted)
		}},
		{"ladder.sched", "sched", func(int, int) {
			id, err := s.svc.Scheduler().SubmitJob(ds.Source(), sched.JobOpts{Name: "ladder"})
			must(err)
			s.checkResult("sched job", waitJob(s.svc.Scheduler(), id).Report, nil)
		}},
		{"ladder.pipeline", "pipeline", func(r, id int) {
			tasks = tasks[:0]
			for i := 0; i < src.Len(); i++ {
				s.timed("store.read_tile", "store", r, id, func() {
					t, err := src.PolyTask(i)
					must(err)
					tasks = append(tasks, t)
				})
			}
			s.timed("pipeline.run_hybrid", "pipeline", r, id, func() {
				res, err := pipeline.RunParsed(tasks, hybridConfig(warm))
				s.checkResult("hybrid pipeline", res, err)
				if res.Stats.ParserBusy != 0 {
					panic("a stored job went through the parser stage")
				}
				gpuShare = append(gpuShare, float64(res.Stats.PairsOnGPU)/float64(res.Stats.PairsFiltered))
				builderMS = append(builderMS, res.Stats.BuilderBusy.Seconds()*1e3)
				filterMS = append(filterMS, res.Stats.FilterBusy.Seconds()*1e3)
				aggregatorMS = append(aggregatorMS, res.Stats.AggregatorBusy.Seconds()*1e3)
			})
		}},
		{"ladder.kernels", "pixelbox", func(r, id int) {
			pairs, tested = pairs[:0], 0
			for _, t := range tasks {
				p, st := s.tilePairs(t, r, id)
				pairs = append(pairs, p...)
				tested += st.EntriesTested
			}
			s.timed("pixelbox.run_cpu_parallel", "pixelbox", r, id, func() {
				pixelbox.RunCPUParallel(pairs, pixelbox.CPUConfig{})
			})
		}},
	}
	climb := func(r int) {
		for _, rung := range rungs {
			s.timedParent(rung.name, rung.layer, r, 0, func(id int) { rung.run(r, id) })
		}
	}
	// The executors' throughput memory settles within two jobs.
	s.aside(false, func() { climb(0); climb(0) })
	gpuShare, builderMS, filterMS, aggregatorMS = nil, nil, nil, nil
	n := s.reps(12)
	cpu := d.cpuSeconds()
	for r := 0; r < n; r++ {
		climb(r)
	}
	// What the idle daemon of rung 0 cost: the paper's "affordable" side.
	s.set("sccgd.cpu_ms_per_kpair", (d.cpuSeconds()-cpu)*1e3/(float64(n*s.want.candidates)/1e3), "ms", n)
	s.set("sccgd.rss_peak_mb", d.rssPeakMB(), "MB", 1)
	must(d.stop())

	// Self times, paired by repetition.
	reads := make([]float64, n) // seconds spent reading tiles in repetition r
	for r := range reads {
		for _, d := range s.dur["store.read_tile"][r*corpusTiles : (r+1)*corpusTiles] {
			reads[r] += d
		}
	}
	selfMS := func(upper, lower string, minus []float64) float64 {
		diffs := make([]float64, n)
		for r := range diffs {
			diffs[r] = (s.dur[upper][r] - s.dur[lower][r]) * 1e3
			if minus != nil {
				diffs[r] -= minus[r] * 1e3
			}
		}
		return median(diffs)
	}
	s.set("ladder.cold_job_ms", s.med("ladder.http")*1e3, "ms", n)
	s.set("http.unattributed_ms", selfMS("ladder.http", "ladder.handler", nil), "ms", n)
	s.set("server.cold_self_ms", selfMS("ladder.handler", "ladder.sched", nil), "ms", n)
	s.set("sched.job_self_ms", selfMS("ladder.sched", "ladder.pipeline", nil), "ms", n)
	s.set("store.read_tiles_ms", median(reads)*1e3, "ms", n)
	s.set("pipeline.self_ms", selfMS("ladder.pipeline", "ladder.kernels", reads), "ms", n)
	s.set("ladder.kernels_ms", s.med("ladder.kernels")*1e3, "ms", n)

	p := float64(len(pairs))
	s.setTime("store.read_tile_us", "store.read_tile", "us")
	s.setRate("pipeline.hybrid_pairs_per_s", "pipeline.run_hybrid", p, "1/s")
	// Which executor takes a batch is a race, so the split varies run to run.
	s.set("pipeline.hybrid_gpu_share", median(gpuShare), "ratio", n)
	s.set("pipeline.builder_busy_ms", median(builderMS), "ms", n)
	s.set("pipeline.filter_busy_ms", median(filterMS), "ms", n)
	s.set("pipeline.aggregator_busy_ms", median(aggregatorMS), "ms", n)
	s.setTime("rtree.build_us_per_tile", "rtree.build", "us")
	s.setTime("rtree.join_us_per_tile", "rtree.join", "us")
	s.set("rtree.entries_tested_per_pair", float64(tested)/p, "ratio", 1)
	s.setRate("pixelbox.cpu_par_pairs_per_s", "pixelbox.run_cpu_parallel", p, "1/s")
}
