package server

// Delete-lifecycle and retention regression tests: the cascade that keeps
// deleted datasets' reports from being served (live, persisted, or
// resurrected at boot), pinning against deletes and sweeps, the clear mid-job
// delete failure, and the admin endpoints.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/retention"
	"repro/internal/sched"
)

func doRequest(t *testing.T, method, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s %s body: %v", method, url, err)
	}
	return resp, raw
}

// waitPersisted blocks until the persisted cache directory holds n entries.
func waitPersisted(t *testing.T, dir string, n int) {
	t.Helper()
	cacheDir := filepath.Join(dir, "cache")
	deadline := time.Now().Add(10 * time.Second)
	for {
		entries, _ := os.ReadDir(cacheDir)
		files := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") {
				files++
			}
		}
		if files >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("persisted cache never reached %d entries (%d)", n, files)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func persistedFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, _ := os.ReadDir(filepath.Join(dir, "cache"))
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// TestDeleteCascadesResultLayers is the first delete regression: deleting a
// dataset must drop its result slot, its persisted report, and the disk
// file behind it — a repeat submission answers 404, a restart resurrects
// nothing, and re-ingesting the same content recomputes instead of serving
// the pre-delete report.
func TestDeleteCascadesResultLayers(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	man := ingestSpec(t, st, "cascade", 11, 2)
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})

	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if done := pollDone(t, ts.URL, jr.ID); done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	waitPersisted(t, dir, 1)

	// Precondition: the repeat is a cache hit.
	if resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-delete repeat = %d, want 200 cache hit: %s", resp.StatusCode, body)
	}

	dresp, draw := doRequest(t, http.MethodDelete, ts.URL+"/datasets/"+man.ID)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d: %s", dresp.StatusCode, draw)
	}
	// The cascade emptied every layer: no cached answer, no disk file.
	if resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-delete repeat = %d, want 404 (not a cached report): %s", resp.StatusCode, body)
	}
	if n := persistedFiles(t, dir); n != 0 {
		t.Fatalf("%d persisted entries survived the delete", n)
	}

	// Restart: nothing to resurrect.
	st2 := testStoreAt(t, dir)
	_, _, ts2 := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st2})
	if resp, body := postJSON(t, ts2.URL+"/jobs", JobRequest{DatasetID: man.ID}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-restart repeat = %d, want 404: %s", resp.StatusCode, body)
	}

	// Re-ingest the identical content (same content ID): the repeat job must
	// recompute, not cache-hit a report from before the delete.
	man2 := ingestSpec(t, st2, "cascade", 11, 2)
	if man2.ID != man.ID {
		t.Fatalf("re-ingest produced %s, want the original content ID %s", man2.ID, man.ID)
	}
	resp, body = postJSON(t, ts2.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-reingest submit = %d, want 202 recompute: %s", resp.StatusCode, body)
	}
	var again JobResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("post-reingest submission was served from cache")
	}
	pollDone(t, ts2.URL, again.ID)
}

// TestBootDropsOrphanedReports: a crash between a dataset delete and its
// cache cascade leaves an orphaned report on disk; the next boot must drop
// it (memory and file), never serve it.
func TestBootDropsOrphanedReports(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	man := ingestSpec(t, st, "orphan", 5, 2)
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})

	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	pollDone(t, ts.URL, jr.ID)
	waitPersisted(t, dir, 1)

	// Simulate the crash window: the dataset directory vanishes without the
	// delete hook ever running.
	if err := os.RemoveAll(filepath.Join(dir, man.ID)); err != nil {
		t.Fatal(err)
	}

	st2 := testStoreAt(t, dir)
	_, _, ts2 := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st2})
	if resp, body := postJSON(t, ts2.URL+"/jobs", JobRequest{DatasetID: man.ID}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("orphaned report was served: %d %s", resp.StatusCode, body)
	}
	if n := persistedFiles(t, dir); n != 0 {
		t.Fatalf("boot left %d orphaned entry file(s) on disk", n)
	}
}

// gatedStoreSource delays tile materialization until released, keeping a
// store-backed job deterministically in flight.
type gatedStoreSource struct {
	src     sched.TaskSource
	release <-chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (g *gatedStoreSource) Len() int { return g.src.Len() }
func (g *gatedStoreSource) wait() {
	g.once.Do(func() { close(g.entered) })
	<-g.release
}
func (g *gatedStoreSource) PolyTask(i int) (pipeline.PolyTask, error) {
	g.wait()
	return g.src.PolyTask(i)
}

// TestForceDeleteMidJobFailsClearly is the third regression: with pinning in
// place a plain DELETE conflicts while the job runs, and a forced delete
// fails the job with a clear "dataset deleted during job" error instead of a
// raw tile-read I/O error. The pin releases at the job's terminal state.
func TestForceDeleteMidJobFailsClearly(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	man := ingestSpec(t, st, "midjob", 9, 1)
	srv, sc, ts := newTestServer(t, sched.Config{}, Options{Store: st})

	ds, err := st.OpenDataset(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	gated := &gatedStoreSource{src: ds.Source(), release: release, entered: make(chan struct{})}
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	// Pin + wrap exactly as submitRequest does for dataset jobs.
	if err := srv.pinDatasets(man.ID); err != nil {
		t.Fatal(err)
	}
	id, err := sc.SubmitJob(wrapPinned(st, gated, man.ID), sched.JobOpts{Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gated.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started materializing")
	}

	// Plain delete conflicts while pinned.
	if dresp, draw := doRequest(t, http.MethodDelete, ts.URL+"/datasets/"+man.ID); dresp.StatusCode != http.StatusConflict {
		t.Fatalf("delete of pinned dataset = %d, want 409: %s", dresp.StatusCode, draw)
	}
	// Forced delete wins.
	if dresp, draw := doRequest(t, http.MethodDelete, ts.URL+"/datasets/"+man.ID+"?force=true"); dresp.StatusCode != http.StatusOK {
		t.Fatalf("forced delete = %d: %s", dresp.StatusCode, draw)
	}
	once.Do(func() { close(release) })

	final, err := sc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.Failed {
		t.Fatalf("job ended %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "deleted during job") {
		t.Fatalf("job error %q does not state the lifecycle fault", final.Error)
	}
	if st.PinnedCount() != 0 {
		t.Fatalf("%d pins leaked past the job's terminal state", st.PinnedCount())
	}
}

// TestConcurrentSweepVsRunningJob: a sweeper hammering the store under a
// 1-byte budget never evicts the dataset of an in-flight job (the pin
// wins), the job completes, and the dataset is reclaimed only after the
// job's terminal state releases the pin. CI runs this under -race.
func TestConcurrentSweepVsRunningJob(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	man := ingestSpec(t, st, "sweeprace", 13, 2)
	srv, sc, _ := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})

	engine := retention.New(retention.Config{Store: st, Policy: retention.Policy{MaxBytes: 1}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				engine.Sweep()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	ds, err := st.OpenDataset(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	gated := &gatedStoreSource{src: ds.Source(), release: release, entered: make(chan struct{})}
	if err := srv.pinDatasets(man.ID); err != nil {
		t.Fatal(err)
	}
	id, err := sc.SubmitJob(wrapPinned(st, gated, man.ID), sched.JobOpts{Name: "swept"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gated.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started materializing")
	}
	// Let the sweeper contend with the blocked job for a moment.
	time.Sleep(20 * time.Millisecond)
	if _, ok := st.Get(man.ID); !ok {
		t.Fatal("sweeper evicted a pinned dataset under a running job")
	}
	close(release)

	final, err := sc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.Done {
		t.Fatalf("job ended %s (%s), want done despite concurrent sweeps", final.State, final.Error)
	}

	// Terminal state released the pin: the budget now reclaims the dataset.
	deadline := time.Now().Add(10 * time.Second)
	for st.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dataset never evicted after the job finished (pins=%d)", st.PinnedCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCacheAdminAndGC: DELETE /cache empties the result store (the repeat
// recomputes), POST /gc sweeps on demand under the configured policy,
// and the retention gauges are exported on /metrics.
func TestCacheAdminAndGC(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	man := ingestSpec(t, st, "admin", 21, 2)
	_, _, ts := newTestServer(t, sched.Config{Devices: 1},
		Options{Store: st, Retention: retention.Policy{MaxBytes: 1, SweepInterval: time.Hour}})

	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	pollDone(t, ts.URL, jr.ID)
	waitPersisted(t, dir, 1)

	dresp, draw := doRequest(t, http.MethodDelete, ts.URL+"/cache")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /cache = %d: %s", dresp.StatusCode, draw)
	}
	var cleared struct {
		Dropped int `json:"dropped"`
	}
	if err := json.Unmarshal(draw, &cleared); err != nil {
		t.Fatal(err)
	}
	if cleared.Dropped != 1 {
		t.Fatalf("DELETE /cache dropped %d, want the job's one key", cleared.Dropped)
	}
	if n := persistedFiles(t, dir); n != 0 {
		t.Fatalf("%d persisted files survived DELETE /cache", n)
	}
	resp, body = postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-clear repeat = %d, want 202 recompute: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	pollDone(t, ts.URL, jr.ID)

	// POST /gc sweeps now: the 1-byte budget evicts the (unpinned) dataset.
	gresp, graw := doRequest(t, http.MethodPost, ts.URL+"/gc")
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("POST /gc = %d: %s", gresp.StatusCode, graw)
	}
	var sw retention.Sweep
	if err := json.Unmarshal(graw, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.BudgetEvicted != 1 || sw.Datasets != 0 || sw.StoreBytes != 0 {
		t.Fatalf("gc = %+v, want the dataset evicted and an empty store", sw)
	}
	if st.Len() != 0 {
		t.Fatal("dataset survived POST /gc under a 1-byte budget")
	}

	mresp, mraw := doRequest(t, http.MethodGet, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", mresp.StatusCode)
	}
	text := string(mraw)
	for _, want := range []string{
		"sccgd_store_bytes 0",
		"sccgd_store_pinned_datasets 0",
		"sccgd_retention_sweeps_total",
		"sccgd_retention_datasets_evicted_total 1",
		"sccgd_cache_cascade_dropped_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Without a store the admin GC answers 501; the cache clear still works.
	_, _, bare := newTestServer(t, sched.Config{}, Options{})
	if gresp, _ := doRequest(t, http.MethodPost, bare.URL+"/gc"); gresp.StatusCode != http.StatusNotImplemented {
		t.Errorf("storeless POST /gc = %d, want 501", gresp.StatusCode)
	}
	if dresp, _ := doRequest(t, http.MethodDelete, bare.URL+"/cache"); dresp.StatusCode != http.StatusOK {
		t.Errorf("storeless DELETE /cache = %d, want 200", dresp.StatusCode)
	}
}

// TestPersistGateBlocksDeletedDataset: a report persister that loses the
// race with a dataset delete (the job's pin releases at its terminal state,
// *before* the report persists) must not insert behind the cascade — adopt's
// gate checks dataset liveness under the same mutex the cascade takes.
func TestPersistGateBlocksDeletedDataset(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	man := ingestSpec(t, st, "gate", 31, 1)
	srv, _, _ := newTestServer(t, sched.Config{}, Options{Store: st})

	if err := st.Delete(man.ID); err != nil {
		t.Fatal(err)
	}
	// What finishWhenDone would do after the delete won the race.
	key := datasetKey(man.ID)
	if _, err := srv.results.adopt(resultEntry{Key: key, Saved: time.Now().UTC()}, key); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := srv.results.lookup(key); ok {
		t.Fatal("result store kept a report for a deleted dataset")
	}
	if n := persistedFiles(t, dir); n != 0 {
		t.Fatalf("%d entry file(s) written for a deleted dataset", n)
	}
	// Cross keys referencing the deleted dataset are gated too.
	other := ingestSpec(t, st, "gate-other", 32, 1)
	key = crossKey(other.ID, man.ID)
	if _, err := srv.results.adopt(resultEntry{Key: key, Saved: time.Now().UTC()}, key); err != nil {
		t.Fatal(err)
	}
	if _, durable := srv.results.counts(); durable != 0 {
		t.Fatal("cross entry referencing a deleted dataset was stored")
	}
}

// TestReportDiskEntryBound: the result table LRU-bounds its entries at adopt
// time and re-enforces the bound over preexisting entry files at boot.
func TestReportDiskEntryBound(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	rs := newResultStore(2, st, nil, new(metrics.Counter), slog.Default())
	if !rs.persistent() {
		t.Fatal("no entry files beside a store")
	}
	saved := time.Now().UTC()
	for i, key := range []string{"k-old", "k-mid", "k-new"} {
		if _, err := rs.adopt(resultEntry{Key: key, Saved: saved.Add(time.Duration(i) * time.Second)}, key); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // strictly ordered adopt recency
	}
	if _, durable := rs.counts(); durable != 2 {
		t.Fatalf("bounded tier holds %d entries, want 2", durable)
	}
	if _, _, ok := rs.lookup("k-old"); ok {
		t.Error("oldest entry survived the adopt-time bound")
	}
	if _, _, ok := rs.lookup("k-new"); !ok {
		t.Error("newest entry was evicted")
	}

	// Boot over the same directory with a tighter cap: load enforces it after
	// indexing the files (and after dropping orphans).
	evicted := new(metrics.Counter)
	rs2 := newResultStore(1, st, nil, evicted, slog.Default())
	if _, durable := rs2.counts(); durable != 1 {
		t.Fatalf("reopened tier holds %d entries, want 1", durable)
	}
	if _, _, ok := rs2.lookup("k-new"); !ok {
		t.Error("boot-time bound evicted the newest entry")
	}
	if n := persistedFiles(t, dir); n != 1 {
		t.Fatalf("%d entry files on disk after bounded reopen, want 1", n)
	}
	if got := evicted.Value(); got != 1 {
		t.Fatalf("boot eviction counted %d, want 1", got)
	}
}

// TestCacheBoundEvictsAndCounts: the one bound holds what the daemon serves
// with a store too, and the slot it evicts — entry file included — is
// counted in sccgd_cache_evicted_total.
func TestCacheBoundEvictsAndCounts(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	x := ingestSpec(t, st, "bound-x", 51, 1)
	y := ingestSpec(t, st, "bound-y", 52, 1)
	srv, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st, CacheMaxEntries: 1})

	for _, id := range []string{x.ID, y.ID} {
		resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: id})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, body)
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		if done := pollDone(t, ts.URL, jr.ID); done.State != "done" {
			t.Fatalf("job ended %s: %s", done.State, done.Error)
		}
		// Each report is on disk before the next submission, so the bound
		// evicts a finished entry, not a racing write.
		waitPersisted(t, dir, 1)
	}
	if n := persistedFiles(t, dir); n != 1 {
		t.Fatalf("%d entry files under a bound of 1", n)
	}
	if got := srv.reg.Counter("sccgd_cache_evicted_total").Value(); got != 1 {
		t.Fatalf("sccgd_cache_evicted_total = %d, want 1", got)
	}
	if resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: x.ID}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat of the evicted key = %d, want 202 recompute: %s", resp.StatusCode, body)
	}
}
