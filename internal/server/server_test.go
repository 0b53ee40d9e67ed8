package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/tilepass"
)

// newTestServer serves opts over a scheduler built from cfg; a nil
// opts.Store gets a fresh store in the test's TempDir.
func newTestServer(t *testing.T, cfg sched.Config, opts Options) (*Server, *sched.Scheduler, *httptest.Server) {
	t.Helper()
	if opts.Store == nil {
		opts.Store = testStore(t)
	}
	s := sched.New(cfg)
	srv := New(s, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		s.Close()
		// Completion watchers write result files into the test's TempDir;
		// they must finish before its cleanup removes the directory.
		srv.Drain()
	})
	return srv, s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func pollDone(t *testing.T, base, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		var jr JobResponse
		getJSON(t, base+"/jobs/"+id, &jr)
		switch jr.State {
		case "done", "failed", "canceled":
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, jr.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitPollFetchRoundTrip drives the full HTTP lifecycle and checks the
// served similarity against a direct pipeline run over the same tasks.
func TestSubmitPollFetchRoundTrip(t *testing.T) {
	_, _, ts := newTestServer(t, sched.Config{Devices: 2}, Options{})

	spec := pathology.Representative()
	spec.Tiles = 4
	d := pathology.Generate(spec)
	direct, err := pipeline.Run(pathologytest.Tasks(d), pipeline.Config{Devices: []*gpu.Device{gpu.NewDevice(gpu.GTX580())}})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: putOK(t, ts.URL, "roundtrip", d).ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("unmarshal submit response: %v", err)
	}
	if jr.ID == "" || jr.Cached {
		t.Fatalf("submit response = %+v, want fresh job with ID", jr)
	}

	done := pollDone(t, ts.URL, jr.ID)
	if done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if done.Report == nil {
		t.Fatal("done job has no report")
	}
	if math.Abs(done.Report.Similarity-direct.Similarity) > 1e-9 {
		t.Errorf("served similarity %.12f != direct %.12f", done.Report.Similarity, direct.Similarity)
	}
	if done.Report.Intersecting != direct.Intersecting {
		t.Errorf("intersecting %d != direct %d", done.Report.Intersecting, direct.Intersecting)
	}

	var list struct {
		Jobs []JobResponse `json:"jobs"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != jr.ID {
		t.Errorf("job list = %+v, want the one submitted job", list.Jobs)
	}

	var health map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
	if health["ok"] != true {
		t.Errorf("healthz = %v, want ok", health)
	}
}

// TestNewRequiresStore: every job reads a stored dataset, so a server built
// without a store is a wiring fault, refused at construction by name.
func TestNewRequiresStore(t *testing.T) {
	sc := sched.New(sched.Config{Workers: 1})
	defer sc.Close()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Options.Store") {
			t.Fatalf("New without a store: recovered %v, want a panic naming Options.Store", r)
		}
	}()
	New(sc, Options{})
}

// TestHealthzSlotsAndGPUs: /healthz counts the tile workers and the GPUs
// apart — a CPU-only pool has CPU workers and no GPU — lists each worker by
// ID and kind, and reports none of the settings that are constants or gone.
func TestHealthzSlotsAndGPUs(t *testing.T) {
	for _, c := range []struct {
		devices int
		workers []any
	}{
		{0, []any{map[string]any{"id": "cpu0", "kind": "cpu"}, map[string]any{"id": "cpu1", "kind": "cpu"}}},
		{2, []any{map[string]any{"id": "gpu0", "kind": "gpu"}, map[string]any{"id": "gpu1", "kind": "gpu"}}},
	} {
		_, _, ts := newTestServer(t, sched.Config{Devices: c.devices, Workers: 2}, Options{})
		var h map[string]any
		getJSON(t, ts.URL+"/healthz", &h)
		if h["workers"] != float64(2) || h["gpus"] != float64(c.devices) {
			t.Errorf("-devices %d: healthz workers=%v gpus=%v, want 2 and %d", c.devices, h["workers"], h["gpus"], c.devices)
		}
		sc, _ := h["scheduler"].(map[string]any)
		qos, _ := h["qos"].(map[string]any)
		if sc == nil || qos == nil {
			t.Fatalf("-devices %d: healthz lacks the scheduler or qos block: %v", c.devices, h)
		}
		if !reflect.DeepEqual(sc["workers"], c.workers) {
			t.Errorf("-devices %d: scheduler block lists workers %v, want %v", c.devices, sc["workers"], c.workers)
		}
		for _, gone := range []string{"devices", "gpus_per_shard", "migration", "max_shards",
			"band_weights", "reserved_slots", "queue_pin_age", "slots"} {
			if h[gone] != nil || sc[gone] != nil || qos[gone] != nil {
				t.Errorf("-devices %d: healthz still reports %q", c.devices, gone)
			}
		}
	}
}

// TestCacheHitSkipsRecompute asserts the result store answers a repeated
// dataset submission with the original job and, critically, that no
// additional kernels are launched on any pool device.
func TestCacheHitSkipsRecompute(t *testing.T) {
	_, s, ts := newTestServer(t, sched.Config{Devices: 2}, Options{Store: testStore(t)})

	man := putOK(t, ts.URL, "oligoastroIII_1", pathology.Generate(pathology.Representative()))
	req := JobRequest{DatasetID: man.ID}
	resp, body := postJSON(t, ts.URL+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var first JobResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, ts.URL, first.ID)
	if done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}

	launchesBefore := int64(0)
	for _, d := range s.DeviceStats() {
		launchesBefore += d.Launches
	}
	if launchesBefore == 0 {
		t.Fatal("first job launched no kernels")
	}

	resp, body = postJSON(t, ts.URL+"/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status = %d, body %s", resp.StatusCode, body)
	}
	var second JobResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.ID != first.ID || second.State != "done" {
		t.Fatalf("cached response = %+v, want cached done job %s", second, first.ID)
	}
	if second.Report == nil || second.Report.Similarity != done.Report.Similarity {
		t.Error("cached response does not carry the original report")
	}

	launchesAfter := int64(0)
	for _, d := range s.DeviceStats() {
		launchesAfter += d.Launches
	}
	if launchesAfter != launchesBefore {
		t.Errorf("cache hit launched kernels: %d -> %d", launchesBefore, launchesAfter)
	}

	// NoCache bypasses and recomputes.
	req.NoCache = true
	resp, body = postJSON(t, ts.URL+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("no_cache submit status = %d, body %s", resp.StatusCode, body)
	}
	var third JobResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.ID == first.ID {
		t.Errorf("no_cache response = %+v, want a fresh job", third)
	}
	pollDone(t, ts.URL, third.ID)
}

func TestSubmitValidation(t *testing.T) {
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{})

	id := strings.Repeat("ab", 32)
	for i, body := range []string{
		`{}`, // no input form
		`{"dataset_id":"` + id + `","dataset_a":"` + id + `","dataset_b":"` + id + `"}`, // two forms
		`{"dataset_id":"` + id + `","tasks":[{"raw_a":"eA==","raw_b":"eQ=="}]}`,
		`{"tasks":[{"raw_b":"eQ=="}]}`,
		`{"corpus":"oligoastroIII_1"}`,
		`{"spec":{"Name":"x","Seed":1,"Tiles":2}}`,
		`{"dataset_id":"` + id + `","corpus":"oligoastroIII_1"}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d (body %s), want 400", i, resp.StatusCode, body)
		}
	}

	// Polygon text is parsed where it enters, at PUT /datasets: malformed
	// text answers 422 naming the tile and set, and no job is queued.
	bad, _ := json.Marshal([]TilePayload{{RawA: []byte("0 POLYGON ((0 0,1 0,1 1,0 1))\n"), RawB: []byte("not a polygon\n")}})
	resp, body := putDataset(t, ts.URL+"/datasets", bad)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "tile 0 set B") {
		t.Errorf("malformed text: status = %d (body %s), want 422 naming tile 0 set B", resp.StatusCode, body)
	}
	var list struct {
		Jobs []JobResponse `json:"jobs"`
	}
	if getJSON(t, ts.URL+"/jobs", &list); len(list.Jobs) != 0 {
		t.Errorf("malformed text queued %d jobs, want none", len(list.Jobs))
	}

	if resp := getJSON(t, ts.URL+"/jobs/job-424242", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestGeneratedFormsRefused: the daemon compares data, it does not make it,
// and every job reads a stored dataset. A POST /jobs body naming a corpus
// dataset, a generator spec or inline polygon text ("tasks") — alone or
// beside a real input form — answers 400 naming the field, and nothing is
// submitted or stored. POST /compare is no route at all.
func TestGeneratedFormsRefused(t *testing.T) {
	st := testStore(t)
	_, sc, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})
	id := strings.Repeat("ab", 32)
	for _, tc := range []struct{ body, field string }{
		{`{"corpus":"oligoastroIII_1"}`, "corpus"},
		{`{"spec":{"Name":"x","Seed":1,"Tiles":2}}`, "spec"},
		{`{"dataset_id":"` + id + `","corpus":"oligoastroIII_1"}`, "corpus"},
		{`{"tasks":[{"tile":0,"raw_a":"MA==","raw_b":"MA=="}]}`, "tasks"},
		{`{"dataset_id":"` + id + `","tasks":[{"tile":0,"raw_a":"MA==","raw_b":"MA=="}]}`, "tasks"},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, `"`+tc.field+`"`) {
			t.Errorf("%s: %d %q, want 400 naming %q", tc.body, resp.StatusCode, out.Error, tc.field)
		}
	}
	if n := sc.Stats().Submitted; n != 0 {
		t.Errorf("refused bodies submitted %d jobs, want none", n)
	}
	if st.Len() != 0 {
		t.Errorf("refused bodies stored %d datasets, want none", st.Len())
	}
	if resp, body := postJSON(t, ts.URL+"/compare", map[string]string{"raw_a": "MA==", "raw_b": "MA=="}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /compare = %d %s, want 404", resp.StatusCode, body)
	}
}

// TestRawTaskSubmission: raw polygon text PUT once runs as a job by the ID
// it answers, and the same bytes PUT again name the same dataset, whose
// repeat job hits the cache.
func TestRawTaskSubmission(t *testing.T) {
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{})

	spec := pathology.Representative()
	spec.Tiles = 2
	d := pathology.Generate(spec)
	man := putOK(t, ts.URL, "raw", d)
	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, ts.URL, jr.ID)
	if done.State != "done" || done.Report == nil || done.Report.Similarity <= 0 {
		t.Fatalf("raw task job = %+v, want done with positive similarity", done)
	}

	// The same bytes resubmitted hit the cache.
	if again := putOK(t, ts.URL, "raw", d); again.ID != man.ID {
		t.Fatalf("re-PUT of the same text = %s, want %s", again.ID, man.ID)
	}
	resp, body = postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d, body %s", resp.StatusCode, body)
	}
	var again JobResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.ID != jr.ID {
		t.Errorf("repeat = %+v, want cache hit on %s", again, jr.ID)
	}
}

func TestCancelEndpoint(t *testing.T) {
	_, sc, ts := newTestServer(t, sched.Config{Devices: 1}, Options{})

	// A gated job holds the single worker, so the victim is still queued
	// when DELETE lands.
	spec := pathology.Representative()
	spec.Tiles = 1
	d := pathology.Generate(spec)
	release := make(chan struct{})
	defer close(release)
	gated := &gatedStoreSource{src: memSource([]tilepass.PolyTask{{A: d.Pairs[0].A, B: d.Pairs[0].B}}),
		release: release, entered: make(chan struct{})}
	if _, err := sc.SubmitJob(gated, sched.JobOpts{Name: "hold"}); err != nil {
		t.Fatal(err)
	}
	<-gated.entered

	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: putOK(t, ts.URL, "victim", d).ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var victim JobResponse
	if err := json.Unmarshal(body, &victim); err != nil {
		t.Fatal(err)
	}
	if dresp, draw := doRequest(t, http.MethodDelete, ts.URL+"/jobs/"+victim.ID); dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d: %s", dresp.StatusCode, draw)
	}
	if done := pollDone(t, ts.URL, victim.ID); done.State != "canceled" {
		t.Errorf("victim state = %s, want canceled", done.State)
	}
	if dresp, _ := doRequest(t, http.MethodDelete, ts.URL+"/jobs/"+victim.ID); dresp.StatusCode != http.StatusConflict {
		t.Errorf("second cancel status = %d, want 409", dresp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	_, _, ts := newTestServer(t, sched.Config{Devices: 2, Registry: reg}, Options{Registry: reg})

	spec := pathology.Representative()
	spec.Tiles = 2
	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: putOK(t, ts.URL, "metrics", pathology.Generate(spec)).ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	pollDone(t, ts.URL, jr.ID)

	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mResp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`sccgd_http_request_duration_seconds_count{route="POST /jobs",status="202"} 1`,
		"sccgd_jobs_submitted_total 1",
		// Scraped right after pollDone saw "done": the outcome is counted
		// before the terminal state is visible.
		`sccgd_job_duration_seconds_count{outcome="done"} 1`,
		"sccgd_cache_misses_total 1",
		`sccgd_device_launches_total{device="gpu0"}`,
		`sccgd_device_busy_seconds{device="gpu1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsFamiliesNotMixed: no series name is exposed both bare and with
// labels, so a scraper's sum over a family counts each observation once.
func TestMetricsFamiliesNotMixed(t *testing.T) {
	reg := metrics.NewRegistry()
	_, _, ts := newTestServer(t, sched.Config{Devices: 2, Registry: reg}, Options{Registry: reg})

	spec := pathology.Representative()
	spec.Tiles = 2
	id := putOK(t, ts.URL, "families", pathology.Generate(spec)).ID
	for _, band := range []string{"", "batch"} {
		resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: id, Band: band, NoCache: true})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		pollDone(t, ts.URL, jr.ID)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	bare, labelled := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, _, ok := strings.Cut(line, "{"); ok && !strings.Contains(name, " ") {
			labelled[name] = true
		} else {
			name, _, _ = strings.Cut(line, " ")
			bare[name] = true
		}
	}
	if !labelled["sccgd_job_queue_wait_seconds_count"] {
		t.Fatalf("no labelled queue-wait series after two jobs:\n%s", raw)
	}
	for name := range bare {
		if labelled[name] {
			t.Errorf("%s is exposed both bare and labelled", name)
		}
	}
}

// TestCacheLRU: the result table is an LRU over its slots — a lookup
// refreshes recency, every eviction is counted, and a slot whose job did not
// finish cleanly is dropped by the lookup that finds it.
func TestCacheLRU(t *testing.T) {
	failed := map[string]bool{}
	job := func(id string) (sched.JobStatus, bool) {
		st := sched.JobStatus{ID: id, State: sched.Done}
		if failed[id] {
			st.State = sched.Failed
		}
		return st, true
	}
	get := func(rs *resultStore, key string) (string, bool) {
		job, _, ok := rs.lookup(key)
		return job.ID, ok
	}
	evicted := new(metrics.Counter)
	c := newResultStore(2, testStore(t), job, evicted, slog.Default())
	c.record("a", "job-1")
	c.record("b", "job-2")
	c.record("c", "job-3") // evicts a
	if _, ok := get(c, "a"); ok {
		t.Error("a survived past the bound")
	}
	if id, ok := get(c, "b"); !ok || id != "job-2" {
		t.Errorf("lookup(b) = %q, %v", id, ok)
	}
	c.record("d", "job-4") // evicts c (b was refreshed)
	if _, ok := get(c, "c"); ok {
		t.Error("c survived, want LRU eviction after b refresh")
	}
	if _, ok := get(c, "b"); !ok {
		t.Error("b evicted despite being most recently used")
	}
	if got := evicted.Value(); got != 2 {
		t.Errorf("evicted counter = %d, want 2", got)
	}
	failed["job-2"] = true
	if _, ok := get(c, "b"); ok {
		t.Error("a failed job's slot was served")
	}
	if slots, _ := c.counts(); slots != 1 {
		t.Errorf("%d slots after the failed job's lookup, want 1", slots)
	}
}
