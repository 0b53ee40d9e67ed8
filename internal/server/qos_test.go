package server

// Multi-tenant QoS regression tests: the byte-budget admission guarantee
// (the store budget is never overshot — ingest evicts synchronously or
// rejects), tenant quota edges on the ingest surface,
// interactive latency under a batch matrix flood, mixed-band load racing
// the retention sweeper, and the tenant dimension of the query log.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/querylog"
	"repro/internal/retention"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/tenant"
)

// testTenants builds a two-tenant config for the quota tests.
func testTenants(t *testing.T, doc string) tenant.Config {
	t.Helper()
	c, err := tenant.ParseConfig([]byte(doc))
	if err != nil {
		t.Fatalf("tenant config: %v", err)
	}
	return c
}

// postJSONAs is postJSON with a tenant token attached.
func postJSONAs(t *testing.T, url, token string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// putDatasetAs is putDataset with a tenant token via the X-Sccg-Token header.
func putDatasetAs(t *testing.T, url, token string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("X-Sccg-Token", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// admissionBody decodes a structured admission rejection.
func admissionBody(t *testing.T, raw []byte) (code, tenantName string) {
	t.Helper()
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("admission body %q: %v", raw, err)
	}
	return m["code"], m["tenant"]
}

// waitUnpinned blocks until every job pin on the store is released — a just
// finished job reports done a moment before its source unpins.
func waitUnpinned(t *testing.T, st *store.Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st.PinnedBytes() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("store pins never released (%d bytes pinned)", st.PinnedBytes())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// segmentBytes is the segment size d occupies once stored, measured on a
// scratch store.
func segmentBytes(t *testing.T, d *pathology.Dataset) int64 {
	t.Helper()
	man, err := pathologytest.Ingest(testStore(t), d)
	if err != nil {
		t.Fatal(err)
	}
	return man.SegmentBytes
}

func qosSpec(name string, seed int64, tiles int) pathology.DatasetSpec {
	spec := pathology.Representative()
	spec.Name = name
	spec.Seed = seed
	spec.Tiles = tiles
	return spec
}

// TestSpecIngestRespectsByteBudget is the byte-budget regression: an ingest
// that lands the store at the budget boundary must trigger a synchronous
// targeted eviction — never an overshoot — and a dataset that cannot fit at
// all must answer a structured 413 with the store left untouched.
func TestSpecIngestRespectsByteBudget(t *testing.T) {
	dA := pathology.Generate(qosSpec("budget-a", 1, 2))
	dB := pathology.Generate(qosSpec("budget-b", 2, 2))
	sizeA, sizeB := segmentBytes(t, dA), segmentBytes(t, dB)
	// Room for either dataset alone, never both.
	budget := sizeA + sizeB/2

	st := testStoreAt(t, t.TempDir())
	_, _, ts := newTestServer(t, sched.Config{Devices: 1},
		Options{Store: st, Retention: retention.Policy{MaxBytes: budget, SweepInterval: time.Hour}})

	putOK(t, ts.URL, "budget-a", dA)
	if got := st.TotalBytes(); got != sizeA || got > budget {
		t.Fatalf("store holds %d bytes after A, want %d within budget %d", got, sizeA, budget)
	}

	// B displaces A: admission evicts synchronously before a byte lands.
	putOK(t, ts.URL, "budget-b", dB)
	if got := st.TotalBytes(); got != sizeB || got > budget {
		t.Fatalf("store holds %d bytes after B, want %d within budget %d", got, sizeB, budget)
	}
	if len(st.List()) != 1 {
		t.Fatalf("store lists %d datasets, want only B after the targeted evict", len(st.List()))
	}

	// A dataset bigger than the whole budget can never be stored.
	dHuge := pathology.Generate(qosSpec("budget-huge", 3, 6))
	if huge := segmentBytes(t, dHuge); huge <= budget {
		t.Fatalf("test setup: huge dataset is %d bytes, want > budget %d", huge, budget)
	}
	resp, body := putDataset(t, ts.URL+"/datasets?name=budget-huge", datasetPayload(t, dHuge))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge PUT = %d: %s, want 413", resp.StatusCode, body)
	}
	if code, _ := admissionBody(t, body); code != "store_full" {
		t.Fatalf("huge PUT rejected as %q, want store_full", code)
	}
	if got := st.TotalBytes(); got != sizeB {
		t.Fatalf("rejected ingest touched the store: %d bytes, want %d", got, sizeB)
	}

	var metricsBuf bytes.Buffer
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if want := `sccgd_admission_rejected_total{reason="store_full"}`; !strings.Contains(metricsBuf.String(), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestPutDatasetTenantQuotaEdges drives the tenant byte and dataset-count
// quotas at their exact boundaries over PUT /datasets, and checks that a
// dataset delete releases the charge.
func TestPutDatasetTenantQuotaEdges(t *testing.T) {
	d1 := pathology.Generate(qosSpec("quota-1", 11, 1))
	d2 := pathology.Generate(qosSpec("quota-2", 12, 1))
	d3 := pathology.Generate(qosSpec("quota-3", 13, 1))
	size1, size2 := segmentBytes(t, d1), segmentBytes(t, d2)

	cfg := testTenants(t, fmt.Sprintf(`{
		"tenants": [
			{"name": "acme", "token": "tok-acme", "max_bytes": %d},
			{"name": "globex", "token": "tok-globex", "max_datasets": 1}
		]
	}`, size1+size2-1))
	st := testStoreAt(t, t.TempDir())
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st, Tenants: cfg})

	// First ingest fits (and may sit exactly at the boundary).
	resp, body := putDatasetAs(t, ts.URL+"/datasets?name=q1", "tok-acme", datasetPayload(t, d1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acme ingest 1 = %d: %s", resp.StatusCode, body)
	}
	var man1 DatasetResponse
	if err := json.Unmarshal(body, &man1); err != nil {
		t.Fatal(err)
	}
	// The second crosses the byte quota by exactly one byte: structured 413.
	resp, body = putDatasetAs(t, ts.URL+"/datasets?name=q2", "tok-acme", datasetPayload(t, d2))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("acme ingest over quota = %d: %s", resp.StatusCode, body)
	}
	if code, who := admissionBody(t, body); code != "tenant_bytes" || who != "acme" {
		t.Fatalf("rejection = code %q tenant %q, want tenant_bytes/acme", code, who)
	}
	// Anonymous traffic is not bounded by acme's quota.
	if resp, body := putDataset(t, ts.URL+"/datasets?name=anon", datasetPayload(t, d2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous ingest = %d: %s", resp.StatusCode, body)
	}
	// Deleting the charged dataset releases the quota.
	dresp, draw := doRequest(t, http.MethodDelete, ts.URL+"/datasets/"+man1.ID)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d: %s", dresp.StatusCode, draw)
	}
	resp, body = putDatasetAs(t, ts.URL+"/datasets?name=q2", "tok-acme", datasetPayload(t, d2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acme ingest after delete = %d: %s", resp.StatusCode, body)
	}

	// Dataset-count quota: the second dataset rejects regardless of size.
	resp, body = putDatasetAs(t, ts.URL+"/datasets?name=g1", "tok-globex", datasetPayload(t, d1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("globex ingest 1 = %d: %s", resp.StatusCode, body)
	}
	resp, body = putDatasetAs(t, ts.URL+"/datasets?name=g2", "tok-globex", datasetPayload(t, d3))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("globex ingest 2 = %d: %s", resp.StatusCode, body)
	}
	if code, who := admissionBody(t, body); code != "tenant_datasets" || who != "globex" {
		t.Fatalf("rejection = code %q tenant %q, want tenant_datasets/globex", code, who)
	}
}

// TestTenantQuotaSurvivesRestart: a PUT answers only once its owner is
// durable, so a daemon that stops without Close, as in a crash, and comes
// back on the same directory still knows what each tenant holds: acme's
// one-dataset quota is full after the restart.
func TestTenantQuotaSurvivesRestart(t *testing.T) {
	cfg := testTenants(t, `{"tenants": [{"name": "acme", "token": "tok-acme", "max_datasets": 1}]}`)
	dir := t.TempDir()
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: testStoreAt(t, dir), Tenants: cfg})
	d1 := pathology.Generate(qosSpec("restart-1", 21, 1))
	if resp, body := putDatasetAs(t, ts.URL+"/datasets", "tok-acme", datasetPayload(t, d1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("acme ingest = %d: %s", resp.StatusCode, body)
	}

	srv2, _, ts2 := newTestServer(t, sched.Config{Devices: 1}, Options{Store: testStoreAt(t, dir), Tenants: cfg})
	if u := srv2.tusage.Usage("acme"); u.Datasets != 1 {
		t.Fatalf("acme usage after restart = %+v, want the one dataset", u)
	}
	d2 := pathology.Generate(qosSpec("restart-2", 22, 1))
	resp, body := putDatasetAs(t, ts2.URL+"/datasets", "tok-acme", datasetPayload(t, d2))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("acme ingest after restart = %d: %s", resp.StatusCode, body)
	}
	if code, who := admissionBody(t, body); code != "tenant_datasets" || who != "acme" {
		t.Fatalf("rejection = code %q tenant %q, want tenant_datasets/acme", code, who)
	}
}

// TestDeleteBeforeAttributionChargesNoOne: a DELETE that lands between an
// ingest's commit and its bookkeeping leaves the tenant charged for nothing,
// and the restarted daemon agrees.
func TestDeleteBeforeAttributionChargesNoOne(t *testing.T) {
	cfg := testTenants(t, `{"tenants": [{"name": "acme", "token": "tok-acme", "max_datasets": 1}]}`)
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	srv, _, _ := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st, Tenants: cfg})
	acme, _ := cfg.ByName("acme")
	man := ingestSpec(t, st, "raced", 23, 1)
	if err := st.Delete(man.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.recordIngest(acme, man, time.Now()); err != nil {
		t.Fatalf("recordIngest: %v", err)
	}
	if u := srv.tusage.Usage("acme"); u != (tenant.Usage{}) {
		t.Fatalf("acme usage = %+v after its dataset was deleted", u)
	}
	srv2, _, _ := newTestServer(t, sched.Config{Devices: 1}, Options{Store: testStoreAt(t, dir), Tenants: cfg})
	if u := srv2.tusage.Usage("acme"); u != (tenant.Usage{}) {
		t.Fatalf("acme usage after restart = %+v", u)
	}
}

// TestReingestDuringDeleteHookKeepsCharge: a PUT of a dataset's bytes that
// races the dataset's delete does not publish the ID until the delete's hook
// (which releases the old copy's tenant charge) has returned, so the stored
// copy stays charged to its tenant.
func TestReingestDuringDeleteHookKeepsCharge(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	srv, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})
	body := datasetPayload(t, pathology.Generate(qosSpec("rehook", 25, 1)))
	resp, out := putDatasetAs(t, ts.URL+"/datasets", "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, out)
	}
	var got struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	man, ok := st.Get(got.ID)
	if !ok {
		t.Fatalf("ingested dataset %q is not stored", got.ID)
	}
	want := tenant.Usage{Bytes: man.SegmentBytes, Datasets: 1}
	if u := srv.tusage.Usage(tenant.DefaultName); u != want {
		t.Fatalf("usage after ingest = %+v, want %+v", u, want)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	st.SetDeleteHook(func(id string) {
		close(entered)
		<-release
		srv.dropDatasetResults(id)
	})
	deleted := make(chan error, 1)
	go func() { deleted <- st.Delete(man.ID) }()
	<-entered
	put := make(chan int, 1)
	go func() {
		code := 0
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/datasets", bytes.NewReader(body))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
				code = resp.StatusCode
			}
		}
		put <- code
	}()
	// Without the wait a PUT of one tile answers well inside this window
	// (and the hook then releases its charge); with it, no PUT can answer.
	select {
	case code := <-put:
		t.Errorf("re-PUT answered %d while the delete's hook still ran", code)
		put <- code
	case <-time.After(300 * time.Millisecond):
	}
	close(release)
	if err := <-deleted; err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if code := <-put; code != http.StatusOK {
		t.Fatalf("re-PUT = %d", code)
	}
	if _, ok := st.Get(man.ID); !ok {
		t.Fatal("re-PUT dataset is not stored")
	}
	if u := srv.tusage.Usage(tenant.DefaultName); u != want {
		t.Fatalf("usage with the dataset stored again = %+v, want %+v", u, want)
	}
}

// TestPutFailsWhenOwnerNotDurable: a PUT whose owner record cannot be
// written answers 500, not 200, and charges no one.
func TestPutFailsWhenOwnerNotDurable(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	if err := os.Mkdir(filepath.Join(dir, "tenants.log"), 0o755); err != nil { // the log cannot open
		t.Fatal(err)
	}
	srv, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})
	d := pathology.Generate(qosSpec("undurable", 24, 1))
	if resp, body := putDatasetAs(t, ts.URL+"/datasets", "", datasetPayload(t, d)); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest with no tenant log = %d: %s", resp.StatusCode, body)
	}
	if u := srv.tusage.Usage(tenant.DefaultName); u != (tenant.Usage{}) {
		t.Fatalf("default usage = %+v", u)
	}
}

// TestInteractiveNotStarvedByMatrix is the starvation regression: a 6-way
// matrix floods every general slot with batch cells, and a concurrent
// interactive job must still start within a bounded queue wait (the
// reserved slot exists exactly for this), visible in both the queue-wait
// histogram and the job's own trace.
func TestInteractiveNotStarvedByMatrix(t *testing.T) {
	reg := metrics.NewRegistry()
	st := testStoreAt(t, t.TempDir())
	var ids []string
	for seed := int64(1); seed <= 6; seed++ {
		ids = append(ids, ingestSpec(t, st, "flood", seed, 1).ID)
	}
	probe := ingestSpec(t, st, "probe", 99, 1)
	_, _, ts := newTestServer(t, sched.Config{Devices: 2, Registry: reg},
		Options{Store: st, Registry: reg})

	resp, body := postJSON(t, ts.URL+"/matrix", MatrixRequest{Datasets: ids, Name: "flood"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("matrix submit = %d: %s", resp.StatusCode, body)
	}
	var mst struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &mst); err != nil {
		t.Fatal(err)
	}

	// Submit the interactive probe while the batch cells saturate the pool.
	resp, body = postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: probe.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("probe submit = %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Band != sched.BandInteractive.String() {
		t.Fatalf("probe band = %q, want interactive", jr.Band)
	}
	done := pollDone(t, ts.URL, jr.ID)
	if done.State != "done" {
		t.Fatalf("probe ended %s: %s", done.State, done.Error)
	}
	if done.Started == nil {
		t.Fatal("done probe has no start time")
	}
	// Bounded queue wait: the 15 batch cells each take tens of milliseconds
	// on the single general slot; the probe must not have waited out that
	// backlog. 5s is far above any healthy wait and far below the flood.
	if wait := done.Started.Sub(done.Submitted); wait > 5*time.Second {
		t.Fatalf("interactive queue wait = %v under batch flood, want bounded", wait)
	}
	if done.Trace == nil {
		t.Fatal("probe has no trace")
	}
	foundQueue := false
	for _, sp := range done.Trace.Spans {
		if sp.Name == "queue" && sp.Detail == "interactive" {
			foundQueue = true
			if sp.DurationMs > 5000 {
				t.Fatalf("trace queue span = %.1fms, want bounded", sp.DurationMs)
			}
		}
	}
	if !foundQueue {
		t.Fatalf("probe trace has no interactive queue span: %+v", done.Trace.Spans)
	}

	// The per-band histogram observed the wait.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), `sccgd_job_queue_wait_seconds_count{band="interactive"}`) {
		t.Error(`metrics missing sccgd_job_queue_wait_seconds{band="interactive"} series`)
	}

	// Drain the matrix so Close doesn't race the flood.
	deadline := time.Now().Add(2 * time.Minute)
	for mst.State == "" || mst.State == "running" {
		if time.Now().After(deadline) {
			t.Fatalf("matrix stuck: %+v", mst)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts.URL+"/matrix/"+mst.ID, &mst)
	}
}

// TestQoSMixedBandSweeperContention exercises mixed-band submissions and
// uploads racing on-demand retention sweeps over a small store — the
// race-detector target for the QoS paths (run under -race in CI). Three
// datasets are stored first for the batch jobs; each ingest-band job PUTs
// its own dataset while the others run. The budget holds them all, so the
// sweeps race every request without evicting what a job still has to read.
func TestQoSMixedBandSweeperContention(t *testing.T) {
	var bodies [][]byte
	var budget int64
	for i := 0; i < 7; i++ {
		d := pathology.Generate(qosSpec(fmt.Sprintf("contend-%d", i), int64(41+i), 1))
		bodies = append(bodies, datasetPayload(t, d))
		budget += segmentBytes(t, d)
	}
	st := testStoreAt(t, t.TempDir())
	_, _, ts := newTestServer(t, sched.Config{Devices: 2},
		Options{Store: st, Retention: retention.Policy{MaxBytes: budget, SweepInterval: time.Hour}})
	put := func(body []byte) (string, error) {
		resp, out := putDataset(t, ts.URL+"/datasets", body)
		var man DatasetResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &man) != nil {
			return "", fmt.Errorf("PUT = %d: %s", resp.StatusCode, out)
		}
		return man.ID, nil
	}
	var ids []string
	for _, body := range bodies[:3] {
		id, err := put(body)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, _ := postJSON(t, ts.URL+"/gc", struct{}{})
			if resp.StatusCode != http.StatusOK {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var jobIDs []string
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := JobRequest{DatasetID: ids[i%3], Band: sched.BandBatch.String()}
			if i%2 == 0 {
				id, err := put(bodies[3+i/2])
				if err != nil {
					t.Errorf("upload %d: %v", i, err)
					return
				}
				req = JobRequest{DatasetID: id, Band: sched.BandIngest.String()}
			}
			resp, body := postJSON(t, ts.URL+"/jobs", req)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d = %d: %s", i, resp.StatusCode, body)
				return
			}
			var jr JobResponse
			if json.Unmarshal(body, &jr) == nil && jr.ID != "" && !jr.Cached {
				mu.Lock()
				jobIDs = append(jobIDs, jr.ID)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for _, id := range jobIDs {
		if done := pollDone(t, ts.URL, id); done.State == "failed" {
			t.Errorf("job %s failed under sweeper contention: %s", id, done.Error)
		}
	}
	close(stop)
	sweeps.Wait()
	if got := st.TotalBytes(); got > budget {
		t.Fatalf("store overshot the budget under contention: %d > %d", got, budget)
	}
}

// TestQuerylogTenantFilter checks the tenant dimension end to end: records
// carry the resolved tenant and GET /querylog?tenant= filters on it.
func TestQuerylogTenantFilter(t *testing.T) {
	cfg := testTenants(t, `{"tenants": [{"name": "acme", "token": "tok-acme"}]}`)
	st := testStoreAt(t, t.TempDir())
	man := ingestSpec(t, st, "qlog", 7, 1)
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st, Tenants: cfg})

	resp, body := postJSONAs(t, ts.URL+"/jobs", "tok-acme", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("acme submit = %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Tenant != "acme" {
		t.Fatalf("submit response tenant = %q, want acme", jr.Tenant)
	}
	pollDone(t, ts.URL, jr.ID)
	// Same content as the default tenant: a cache hit, logged under default.
	if resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID}); resp.StatusCode != http.StatusOK {
		t.Fatalf("default repeat = %d: %s", resp.StatusCode, body)
	}

	type qlogResponse struct {
		Records []querylog.Record `json:"records"`
	}
	var acmeOnly qlogResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+"/querylog?tenant=acme&kind=job", &acmeOnly)
		if len(acmeOnly.Records) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no acme job records appeared in the query log")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, rec := range acmeOnly.Records {
		if rec.Tenant != "acme" {
			t.Fatalf("tenant=acme filter returned record for %q", rec.Tenant)
		}
		if rec.Band == "" {
			t.Fatalf("job record has no band: %+v", rec)
		}
	}
	var all qlogResponse
	getJSON(t, ts.URL+"/querylog?kind=job", &all)
	defaultSeen := false
	for _, rec := range all.Records {
		if rec.Tenant == "default" {
			defaultSeen = true
		}
	}
	if !defaultSeen {
		t.Fatalf("unfiltered log lost the default tenant's records: %+v", all.Records)
	}
	if len(all.Records) <= len(acmeOnly.Records) {
		t.Fatalf("filter removed nothing: %d total vs %d acme", len(all.Records), len(acmeOnly.Records))
	}
}
