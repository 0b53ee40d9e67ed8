package main

// End-to-end integration test: boot the real daemon (flag parsing, service
// wiring, HTTP server) on an ephemeral port, submit a job over the wire,
// poll it to completion, and check the reported similarity against an
// in-process engine run of the same polygons — which must match exactly,
// because hybrid/sharded aggregation is bit-deterministic.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/geom"
	"repro/internal/parser"
	"repro/internal/pathology"
)

func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-devices", "2",
			"-hybrid-cpu",
			"-workers", "2",
		}, func(addr string) { ready <- addr })
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	d := pathology.Generate(pathology.DatasetSpec{Name: "e2e", Seed: 20260727, Tiles: 4,
		Gen: pathology.DefaultGenConfig()})

	body, _ := json.Marshal(map[string]any{"tasks": tileObjects(d)})
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Report *struct {
			Similarity   float64 `json:"similarity"`
			Intersecting int     `json:"intersecting"`
			Candidates   int     `json:"candidates"`
			Executors    []struct {
				ID   string `json:"id"`
				Kind string `json:"kind"`
			} `json:"executors"`
		} `json:"report"`
		Error string `json:"error"`
	}
	decodeBody(t, resp, &job, http.StatusAccepted)
	if job.ID == "" {
		t.Fatal("job response carried no ID")
	}

	deadline := time.Now().Add(60 * time.Second)
	for job.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q (error %q)", job.State, job.Error)
		}
		if job.State == "failed" || job.State == "canceled" {
			t.Fatalf("job reached %q: %s", job.State, job.Error)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err = http.Get(base + "/jobs/" + job.ID)
		if err != nil {
			t.Fatalf("GET /jobs/%s: %v", job.ID, err)
		}
		decodeBody(t, resp, &job, http.StatusOK)
	}
	if job.Report == nil {
		t.Fatal("done job has no report")
	}

	// The in-process oracle: same polygons, single GPU, no hybrid —
	// similarity must still match bit-for-bit.
	eng := sccg.NewEngine(sccg.Options{})
	want, err := eng.CrossCompareDataset(sccg.EncodeDataset(d))
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	if job.Report.Similarity != want.Similarity {
		t.Errorf("daemon similarity %.17g != engine %.17g (must be exact)",
			job.Report.Similarity, want.Similarity)
	}
	if job.Report.Intersecting != want.Intersecting || job.Report.Candidates != want.Candidates {
		t.Errorf("daemon counts (%d,%d) != engine (%d,%d)",
			job.Report.Intersecting, job.Report.Candidates, want.Intersecting, want.Candidates)
	}
	if len(job.Report.Executors) == 0 {
		t.Error("report carries no per-executor accounting")
	} else {
		kinds := map[string]bool{}
		for _, e := range job.Report.Executors {
			kinds[e.Kind] = true
		}
		if !kinds["gpu"] || !kinds["cpu"] {
			t.Errorf("hybrid job should report gpu and cpu executors, got %+v", job.Report.Executors)
		}
	}

	// The shared registry surfaces per-executor counters on /metrics.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metricsText), "sccg_executor_pairs_total") {
		t.Errorf("/metrics missing hybrid executor accounting:\n%s", metricsText)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// tileObjects is d's polygon text as the tile objects that PUT /datasets and
// the tasks form of POST /jobs both take.
func tileObjects(d *pathology.Dataset) []map[string]any {
	tasks := sccg.EncodeDataset(d)
	out := make([]map[string]any, len(tasks))
	for i, task := range tasks {
		out[i] = map[string]any{"image": task.Image, "tile": task.Tile, "raw_a": task.RawA, "raw_b": task.RawB}
	}
	return out
}

// putDataset stores d on the daemon under name and returns its content ID.
func putDataset(t *testing.T, base, name string, d *pathology.Dataset) string {
	t.Helper()
	body, err := json.Marshal(tileObjects(d))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/datasets?name="+name, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT /datasets: %v", err)
	}
	var man struct {
		ID string `json:"id"`
	}
	decodeBody(t, resp, &man, http.StatusOK)
	return man.ID
}

func decodeBody(t *testing.T, resp *http.Response, dst any, wantCode int) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantCode, raw)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
}

// TestDaemonDatasetPersistence is the store's end-to-end acceptance test:
// ingest a dataset over HTTP, restart the daemon against the same -data-dir,
// submit a job by dataset ID against the recovered store, check the
// similarity bit-for-bit against the in-process engine, and check that a
// second submission is served from the content-hash cache without another
// kernel launch.
func TestDaemonDatasetPersistence(t *testing.T) {
	dataDir := t.TempDir()

	boot := func(t *testing.T) (base string, stop func()) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		errCh := make(chan error, 1)
		go func() {
			errCh <- run(ctx, []string{
				"-addr", "127.0.0.1:0",
				"-devices", "1",
				"-data-dir", dataDir,
			}, func(addr string) { ready <- addr })
		}()
		select {
		case addr := <-ready:
			base = "http://" + addr
		case err := <-errCh:
			t.Fatalf("daemon exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not become ready")
		}
		return base, func() {
			cancel()
			select {
			case err := <-errCh:
				if err != nil {
					t.Fatalf("daemon shutdown: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("daemon did not shut down")
			}
		}
	}

	spec := pathology.DatasetSpec{Name: "persist-e2e", Seed: 42, Tiles: 3,
		Gen: pathology.DefaultGenConfig()}
	d := pathology.Generate(spec)

	// Boot 1: ingest the dataset over HTTP.
	base, stop := boot(t)
	payload := make([]map[string]any, len(d.Pairs))
	for i, tp := range d.Pairs {
		payload[i] = map[string]any{
			"image": tp.Image,
			"tile":  tp.Index,
			"raw_a": sccg.EncodePolygons(tp.A),
			"raw_b": sccg.EncodePolygons(tp.B),
		}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/datasets?name=persist-e2e", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT /datasets: %v", err)
	}
	var man struct {
		ID    string `json:"id"`
		Name  string `json:"name"`
		Tiles int    `json:"tiles"`
	}
	decodeBody(t, resp, &man, http.StatusOK)
	if man.ID == "" || man.Tiles != 3 {
		t.Fatalf("ingest response %+v, want 3-tile dataset with content ID", man)
	}
	stop()

	// Boot 2: same data dir, the dataset must be recovered from its
	// manifest; run a job against it by content ID.
	base, stop = boot(t)
	defer stop()

	var stat struct {
		ID string `json:"id"`
	}
	resp, err = http.Get(base + "/datasets/" + man.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &stat, http.StatusOK)
	if stat.ID != man.ID {
		t.Fatalf("recovered dataset stat %+v, want ID %s", stat, man.ID)
	}

	submit := func() (code int, job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
		Report *struct {
			Similarity   float64 `json:"similarity"`
			Intersecting int     `json:"intersecting"`
		} `json:"report"`
	}) {
		body, _ := json.Marshal(map[string]any{"dataset_id": man.ID})
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		return resp.StatusCode, job
	}

	code, job := submit()
	if code != http.StatusAccepted {
		t.Fatalf("job by dataset_id status = %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for job.State != "done" {
		if job.State == "failed" || job.State == "canceled" || time.Now().After(deadline) {
			t.Fatalf("job state %q: %s", job.State, job.Error)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err := http.Get(base + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
	}
	if job.Report == nil {
		t.Fatal("done job has no report")
	}

	// Bit-for-bit against the in-process engine over the same polygons.
	eng := sccg.NewEngine(sccg.Options{})
	want, err := eng.CrossCompareDataset(sccg.EncodeDataset(d))
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	if job.Report.Similarity != want.Similarity || job.Report.Intersecting != want.Intersecting {
		t.Errorf("store-backed job (%.17g, %d) != engine (%.17g, %d); must be exact",
			job.Report.Similarity, job.Report.Intersecting, want.Similarity, want.Intersecting)
	}

	// Second submission: a content-hash cache hit, no recompute.
	firstID := job.ID
	code, cached := submit()
	if code != http.StatusOK || !cached.Cached || cached.ID != firstID || cached.State != "done" {
		t.Fatalf("resubmission = %d %+v, want cached done job %s", code, cached, firstID)
	}
}

// TestDaemonMatrixEndToEnd is the cross-comparison subsystem's acceptance
// test: PUT three variant segmentations of the same slide, POST /matrix,
// poll the run to completion, verify every off-diagonal cell bit-for-bit
// against in-process CrossComparePolygons over the same polygons, then
// restart the daemon on the same data dir and check a repeat matrix is
// answered entirely from the persisted cache without submitting any job.
func TestDaemonMatrixEndToEnd(t *testing.T) {
	dataDir := t.TempDir()

	boot := func(t *testing.T) (base string, stop func()) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		errCh := make(chan error, 1)
		go func() {
			errCh <- run(ctx, []string{
				"-addr", "127.0.0.1:0",
				"-devices", "2",
				"-data-dir", dataDir,
			}, func(addr string) { ready <- addr })
		}()
		select {
		case addr := <-ready:
			base = "http://" + addr
		case err := <-errCh:
			t.Fatalf("daemon exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not become ready")
		}
		return base, func() {
			cancel()
			select {
			case err := <-errCh:
				if err != nil {
					t.Fatalf("daemon shutdown: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("daemon did not shut down")
			}
		}
	}

	// Three single-tile variants of the same slide: identical tile keys,
	// different polygons, so the 3×3 matrix compares algorithm outputs and
	// CrossComparePolygons is an exact per-cell oracle.
	var datasets []*pathology.Dataset
	for seed := int64(1); seed <= 3; seed++ {
		spec := pathology.DatasetSpec{Name: "mx-e2e", Seed: seed, Tiles: 1,
			Gen: pathology.DefaultGenConfig()}
		datasets = append(datasets, pathology.Generate(spec))
	}

	base, stop := boot(t)
	ids := make([]string, len(datasets))
	for i, d := range datasets {
		ids[i] = putDataset(t, base, "", d)
	}

	type matrixStatus struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Cells [][]struct {
			State      string  `json:"state"`
			Cached     bool    `json:"cached"`
			Error      string  `json:"error"`
			Similarity float64 `json:"similarity"`
			Intersect  int     `json:"intersecting"`
			Candidates int     `json:"candidates"`
		} `json:"cells"`
		ExactCells    int `json:"exact_cells"`
		TerminalCells int `json:"terminal_cells"`
	}

	runMatrix := func(base string) matrixStatus {
		body, _ := json.Marshal(map[string]any{"datasets": ids})
		resp, err := http.Post(base+"/matrix", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /matrix: %v", err)
		}
		var mst matrixStatus
		decodeBody(t, resp, &mst, http.StatusAccepted)
		deadline := time.Now().Add(60 * time.Second)
		for mst.State == "running" {
			if time.Now().After(deadline) {
				t.Fatalf("matrix %s stuck running", mst.ID)
			}
			time.Sleep(20 * time.Millisecond)
			resp, err := http.Get(base + "/matrix/" + mst.ID)
			if err != nil {
				t.Fatal(err)
			}
			decodeBody(t, resp, &mst, http.StatusOK)
		}
		return mst
	}

	mst := runMatrix(base)
	if mst.State != "done" {
		t.Fatalf("matrix ended %s: %+v", mst.State, mst)
	}
	if mst.ExactCells != 3 || mst.TerminalCells != 3 {
		t.Errorf("matrix exact/terminal cells = %d/%d, want 3/3", mst.ExactCells, mst.TerminalCells)
	}

	// Oracle: the engine's CrossComparePolygons over dataset i's set A and
	// dataset j's set B — exactly the cross-cell semantics.
	eng := sccg.NewEngine(sccg.Options{})
	for i := 0; i < 3; i++ {
		if mst.Cells[i][i].State != "self" {
			t.Errorf("diagonal cell [%d][%d] = %q, want self", i, i, mst.Cells[i][i].State)
		}
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			c := mst.Cells[i][j]
			if c.State != "done" {
				t.Fatalf("cell [%d][%d] = %q: %s", i, j, c.State, c.Error)
			}
			if c.Similarity != mst.Cells[j][i].Similarity {
				t.Errorf("matrix asymmetric at [%d][%d]", i, j)
			}
			// Cell (i,j) with i<j was computed as cross(ids[i], ids[j]);
			// the mirror carries the same report.
			a, b := i, j
			if i > j {
				a, b = j, i
			}
			sim, hits, cands := eng.CrossComparePolygons(datasets[a].Pairs[0].A, datasets[b].Pairs[0].B)
			if c.Similarity != sim || c.Intersect != hits || c.Candidates != cands {
				t.Errorf("cell [%d][%d] = (%.17g, %d, %d), CrossComparePolygons = (%.17g, %d, %d); must be exact",
					i, j, c.Similarity, c.Intersect, c.Candidates, sim, hits, cands)
			}
		}
	}
	stop()

	// Restart on the same data dir: the repeat matrix must be answered
	// entirely from the persisted cache — same values, zero jobs submitted.
	base, stop = boot(t)
	defer stop()
	again := runMatrix(base)
	if again.State != "done" {
		t.Fatalf("post-restart matrix ended %s: %+v", again.State, again)
	}
	for i := range again.Cells {
		for j := range again.Cells[i] {
			if i == j {
				continue
			}
			if !again.Cells[i][j].Cached {
				t.Errorf("post-restart cell [%d][%d] not served from cache", i, j)
			}
			if again.Cells[i][j].Similarity != mst.Cells[i][j].Similarity {
				t.Errorf("post-restart cell [%d][%d] similarity drifted", i, j)
			}
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metricsText), "sccgd_jobs_submitted_total 0") {
		t.Errorf("post-restart matrix submitted jobs; metrics:\n%s", grepLine(string(metricsText), "sccgd_jobs_submitted_total"))
	}
}

// TestDaemonTraceEndToEnd is the observability acceptance test: boot the
// daemon with JSON logs and a pprof sidecar listener, run a job to
// completion, and check that (a) the job report carries a stage trace whose
// spans are present, monotone, and consistent with the job's wall time,
// (b) GET /jobs/{id}/trace serves the same trace, (c) /metrics exposes the
// new latency histograms in Prometheus text form, and (d) the pprof listener
// answers on its own address.
func TestDaemonTraceEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-pprof-addr", "127.0.0.1:0",
			"-log-format", "json",
			"-devices", "2",
			"-hybrid-cpu",
			"-workers", "2",
		}, func(addr string) { ready <- addr })
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	d := pathology.Generate(pathology.DatasetSpec{Name: "trace-e2e", Seed: 7, Tiles: 4,
		Gen: pathology.DefaultGenConfig()})
	wallStart := time.Now()
	body, _ := json.Marshal(map[string]any{"tasks": tileObjects(d), "band": "ingest"})
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	type traceBlock struct {
		StartedAt string  `json:"started_at"`
		TotalMs   float64 `json:"total_ms"`
		Spans     []struct {
			Name       string  `json:"name"`
			Detail     string  `json:"detail"`
			StartMs    float64 `json:"start_ms"`
			DurationMs float64 `json:"duration_ms"`
		} `json:"spans"`
	}
	var job struct {
		ID    string      `json:"id"`
		State string      `json:"state"`
		Error string      `json:"error"`
		Trace *traceBlock `json:"trace"`
	}
	decodeBody(t, resp, &job, http.StatusAccepted)
	deadline := time.Now().Add(60 * time.Second)
	for job.State != "done" {
		if job.State == "failed" || job.State == "canceled" || time.Now().After(deadline) {
			t.Fatalf("job state %q: %s", job.State, job.Error)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err = http.Get(base + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &job, http.StatusOK)
	}
	wallElapsed := time.Since(wallStart)

	checkTrace := func(source string, tr *traceBlock) {
		t.Helper()
		if tr == nil {
			t.Fatalf("%s: completed job has no trace block", source)
		}
		if tr.StartedAt == "" {
			t.Errorf("%s: trace has no started_at", source)
		}
		if tr.TotalMs <= 0 {
			t.Errorf("%s: trace total_ms = %v, want > 0", source, tr.TotalMs)
		}
		// The trace total is frozen at the job's terminal transition; it
		// cannot exceed the observed wall time around the submit/poll loop.
		if wall := wallElapsed.Seconds() * 1000; tr.TotalMs > wall+1 {
			t.Errorf("%s: trace total %.3fms exceeds observed wall time %.3fms", source, tr.TotalMs, wall)
		}
		seen := map[string]int{}
		prevStart := -1.0
		for _, sp := range tr.Spans {
			seen[sp.Name]++
			if sp.StartMs < prevStart {
				t.Errorf("%s: span %q start %.3f precedes previous span start %.3f (snapshot must be sorted)",
					source, sp.Name, sp.StartMs, prevStart)
			}
			prevStart = sp.StartMs
			if sp.StartMs < 0 || sp.DurationMs < 0 {
				t.Errorf("%s: span %+v has negative offset or duration", source, sp)
			}
		}
		// Every stage the job ran must have left a span: request
		// materialization, queue wait, the tiles' summed read and compute
		// (one span each, whatever the worker count), and the fold.
		for _, want := range []string{"materialize", "queue", "execute", "merge"} {
			if seen[want] == 0 {
				t.Errorf("%s: trace has no %q span; spans: %v", source, want, seen)
			}
		}
		if seen["execute"] != 1 || seen["shard"] != 0 {
			t.Errorf("%s: want one execute span and no shard span, got %v", source, seen)
		}
	}
	checkTrace("job report", job.Trace)

	// The dedicated trace endpoint serves the same block.
	resp, err = http.Get(base + "/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var traced struct {
		JobID string      `json:"job_id"`
		State string      `json:"state"`
		Trace *traceBlock `json:"trace"`
	}
	decodeBody(t, resp, &traced, http.StatusOK)
	if traced.JobID != job.ID || traced.State != "done" {
		t.Errorf("GET /jobs/%s/trace = %+v", job.ID, traced)
	}
	checkTrace("trace endpoint", traced.Trace)

	resp, err = http.Get(base + "/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job = %d, want 404", resp.StatusCode)
	}

	// The new latency histograms surface on /metrics in Prometheus text form.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metricsText := string(raw)
	for _, want := range []string{
		`sccgd_http_request_duration_seconds_bucket{route="POST /jobs",status="202",le="+Inf"}`,
		`sccgd_job_duration_seconds_bucket{outcome="done",le="+Inf"} 1`,
		`sccgd_job_queue_wait_seconds_count{band="ingest"} 1`,
		`sccg_executor_batch_seconds_bucket{kind="gpu"`,
		"# TYPE sccgd_job_duration_seconds histogram",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q; got:\n%s", want, grepLine(metricsText, "duration"))
		}
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestMalformedAdvertiseRefused: a clustered daemon whose -advertise address
// cannot be parsed exits with an error naming it, instead of dropping the
// cluster and serving alone.
func TestMalformedAdvertiseRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	served := false
	err := run(ctx, []string{
		"-addr", "127.0.0.1:0",
		"-data-dir", t.TempDir(),
		"-peers", "127.0.0.1:9",
		"-advertise", "ftp://host-a:8080",
	}, func(string) { served = true; cancel() })
	if served || err == nil || !strings.Contains(err.Error(), "ftp://host-a:8080") {
		t.Fatalf("run with a malformed -advertise: served %v, err %v; want an error naming the address", served, err)
	}
}

// TestDaemonPprofListener boots the daemon with a pprof sidecar and checks
// the profiling index answers on the sidecar address but not the API one.
func TestDaemonPprofListener(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// run only reports the API address through onReady, so reserve a loopback
	// port up front and hand it to -pprof-addr to know where the sidecar is.
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	pport := freePort(t)
	go func() {
		errCh <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-pprof-addr", pport,
			"-devices", "0",
		}, func(addr string) { ready <- addr })
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	resp, err := http.Get("http://" + pport + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET pprof index: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d, want 200", resp.StatusCode)
	}

	// The API listener must NOT expose profiling.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("API listener serves /debug/pprof/; profiling must stay on the sidecar")
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonDefaultPixelExtent: a daemon started with only an address and a
// data directory runs one CPU-only slot, so the pair of
// internal/server's TestPixelExtentIsNotComputeJob — two valid six-vertex
// polygons 2^30 pixels across, which PUT /datasets accepts — is a few bands
// of work on the default config, not ~10^8 simulated-GPU sampling boxes.
func TestDaemonDefaultPixelExtent(t *testing.T) {
	base, stop := bootDaemon(t, []string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir()})
	defer stop()

	const e, h = int64(1) << 30, int64(1) << 29
	p := geom.MustPolygon([]geom.Point{{X: 0, Y: 0}, {X: int32(e), Y: 0}, {X: int32(e), Y: int32(h)},
		{X: int32(h), Y: int32(h)}, {X: int32(h), Y: int32(e)}, {X: 0, Y: int32(e)}})
	inter := (h - 3) * (2*e - h - 3)
	want := float64(inter) / float64(2*p.Area()-inter)
	body, err := json.Marshal([]map[string]any{{"image": "huge", "tile": 0,
		"raw_a": parser.Encode([]*geom.Polygon{p}), "raw_b": parser.Encode([]*geom.Polygon{p.Translate(3, 3)})}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/datasets?name=huge", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT /datasets: %v", err)
	}
	var man struct {
		ID string `json:"id"`
	}
	decodeBody(t, resp, &man, http.StatusOK)

	jb, _ := json.Marshal(map[string]any{"dataset_id": man.ID})
	resp, err = http.Post(base+"/jobs", "application/json", bytes.NewReader(jb))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Report *struct {
			Similarity float64 `json:"similarity"`
			PairsOnCPU int     `json:"pairs_on_cpu"`
		} `json:"report"`
	}
	decodeBody(t, resp, &job, http.StatusAccepted)
	deadline := time.Now().Add(5 * time.Second)
	for job.State != "done" {
		if job.State == "failed" || job.State == "canceled" {
			t.Fatalf("job ended %s: %s", job.State, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 5s: a bare daemon computes the pair's pixel extent", job.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(base + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &job, http.StatusOK)
	}
	if r := job.Report; r == nil || r.PairsOnCPU != 1 || r.Similarity != want {
		t.Fatalf("report %+v, want similarity %v from 1 pair on a CPU", r, want)
	}
}

// freePort reserves an ephemeral loopback port and releases it for the
// daemon to bind. The tiny race window is acceptable in tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func grepLine(text, substr string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return "(metric absent)"
}

// TestDaemonMatrixProgressive is the progressive-execution acceptance test:
// over a spatially skewed 6-dataset corpus (two clusters of 3, disjoint
// coordinate ranges), a top_k=3 matrix run must skip every provably-empty
// cross-cluster cell, answer the cells it does compute bit-identically to
// the in-process oracle, and surface the true top-3 similarities among its
// exact cells — all through the long-poll wire protocol.
func TestDaemonMatrixProgressive(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-devices", "2",
			"-data-dir", t.TempDir(),
		}, func(addr string) { ready <- addr })
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	// Six single-tile variants sharing tile keys: seeds 1-3 at the origin,
	// seeds 4-6 translated to a far cluster, so the 9 cross-cluster cells
	// have provably empty per-tile stat windows (bound 0).
	const shift = 1 << 20
	var datasets []*pathology.Dataset
	for seed := int64(1); seed <= 6; seed++ {
		spec := pathology.DatasetSpec{Name: "mxp-e2e", Seed: seed, Tiles: 1,
			Gen: pathology.DefaultGenConfig()}
		d := pathology.Generate(spec)
		if seed > 3 {
			for _, tp := range d.Pairs {
				for k, p := range tp.A {
					tp.A[k] = p.Translate(shift, shift)
				}
				for k, p := range tp.B {
					tp.B[k] = p.Translate(shift, shift)
				}
			}
		}
		datasets = append(datasets, d)
	}
	ids := make([]string, len(datasets))
	for i, d := range datasets {
		ids[i] = putDataset(t, base, "", d)
	}

	type cell struct {
		State      string   `json:"state"`
		Error      string   `json:"error"`
		Similarity float64  `json:"similarity"`
		Intersect  int      `json:"intersecting"`
		Candidates int      `json:"candidates"`
		Bound      *float64 `json:"bound"`
	}
	type matrixStatus struct {
		ID      string   `json:"id"`
		State   string   `json:"state"`
		TopK    int      `json:"top_k"`
		Version int64    `json:"version"`
		Cells   [][]cell `json:"cells"`
		Planned int      `json:"planned_cells"`
		Exact   int      `json:"exact_cells"`
		Skipped int      `json:"skipped_cells"`
		Bounded int      `json:"bounded_cells"`
		PlanTrc any      `json:"plan_trace"`
	}

	body, _ := json.Marshal(map[string]any{"datasets": ids, "top_k": 3})
	resp, err := http.Post(base+"/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /matrix: %v", err)
	}
	var mst matrixStatus
	decodeBody(t, resp, &mst, http.StatusAccepted)
	if mst.TopK != 3 {
		t.Fatalf("top_k echo = %d", mst.TopK)
	}
	// Follow the run through the long-poll protocol rather than dumb polls.
	deadline := time.Now().Add(60 * time.Second)
	for mst.State == "running" {
		if time.Now().After(deadline) {
			t.Fatalf("matrix %s stuck running", mst.ID)
		}
		resp, err := http.Get(fmt.Sprintf("%s/matrix/%s?wait=1&since=%d", base, mst.ID, mst.Version))
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &mst, http.StatusOK)
	}
	if mst.State != "done" {
		t.Fatalf("matrix ended %s: %+v", mst.State, mst)
	}
	if mst.Planned != 15 || mst.Exact+mst.Skipped+mst.Bounded != 15 {
		t.Fatalf("planned/exact/skipped/bounded = %d/%d/%d/%d",
			mst.Planned, mst.Exact, mst.Skipped, mst.Bounded)
	}
	// The 9 cross-cluster cells are provably empty and must all be skipped;
	// at least K within-cluster cells were answered exactly.
	if mst.Skipped < 9 {
		t.Errorf("only %d cells skipped; the 9 cross-cluster cells are provably empty", mst.Skipped)
	}
	if mst.Exact < 3 {
		t.Errorf("only %d exact cells for top_k=3", mst.Exact)
	}
	if mst.PlanTrc == nil {
		t.Error("progressive run carries no plan trace")
	}

	// Oracle over the same (translated) polygons: exact cells bit-identical,
	// elided cells' true similarity within their reported bound.
	eng := sccg.NewEngine(sccg.Options{})
	var oracle [15]float64
	var exactSims []float64
	k := 0
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			sim, hits, cands := eng.CrossComparePolygons(datasets[i].Pairs[0].A, datasets[j].Pairs[0].B)
			oracle[k] = sim
			k++
			c := mst.Cells[i][j]
			switch c.State {
			case "done":
				if c.Similarity != sim || c.Intersect != hits || c.Candidates != cands {
					t.Errorf("cell [%d][%d] = (%.17g, %d, %d), oracle = (%.17g, %d, %d); must be exact",
						i, j, c.Similarity, c.Intersect, c.Candidates, sim, hits, cands)
				}
				exactSims = append(exactSims, c.Similarity)
			case "skipped", "bounded":
				if c.Bound == nil {
					t.Fatalf("elided cell [%d][%d] has no bound", i, j)
				}
				if sim > *c.Bound+1e-9 {
					t.Errorf("cell [%d][%d] oracle similarity %v exceeds reported bound %v",
						i, j, sim, *c.Bound)
				}
			default:
				t.Fatalf("cell [%d][%d] = %q: %s", i, j, c.State, c.Error)
			}
		}
	}
	// Every true top-3 similarity is among the exact cells.
	sims := oracle[:]
	sort.Float64s(sims)
	for _, want := range sims[len(sims)-3:] {
		found := false
		for _, got := range exactSims {
			if got == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("true top-3 similarity %.17g missing from the exact cells %v", want, exactSims)
		}
	}

	// Shutdown writes into the data dir (tenants.json): it must be over
	// before the TempDir under it is removed.
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
