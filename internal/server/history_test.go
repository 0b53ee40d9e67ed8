package server

// Tests for bounded history: the scheduler and the matrix manager forget
// finished work past a constant, and the result table is the one record that
// outlives it.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pathology"
	"repro/internal/sched"
	"repro/internal/tilepass"
)

// keptJobs is the scheduler's keepFinishedJobs.
const keptJobs = 1024

// serve runs one request through the handler in process.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoryFollowsConfigNotUptime: a daemon's memory depends on its
// configuration, not on how many jobs it has run. 20k uncached jobs leave
// the live heap within 4 MiB of where 2k left it, and GET /jobs lists at most
// the last keptJobs finished jobs.
func TestMemoryFollowsConfigNotUptime(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	man := ingestSpec(t, st, "uptime", 1, 1)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, sc, _ := newTestServer(t, sched.Config{}, Options{Store: st, Logger: quiet})
	h := srv.Handler()
	body, err := json.Marshal(JobRequest{DatasetID: man.ID, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	runTo := func(n int) {
		t.Helper()
		const batch = 32 // inside the default queue depth
		ids := make([]string, 0, batch)
		for ran < n {
			for len(ids) < batch && ran+len(ids) < n {
				rec := serve(h, http.MethodPost, "/jobs", body)
				var jr JobResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil || rec.Code != http.StatusAccepted {
					t.Fatalf("job %d: submit = %d %s", ran+len(ids), rec.Code, rec.Body)
				}
				ids = append(ids, jr.ID)
			}
			for _, id := range ids {
				if js, err := sc.Wait(context.Background(), id); err != nil || js.State != sched.Done {
					t.Fatalf("job %s ended %v (%v): %s", id, js.State, err, js.Error)
				}
			}
			ran += len(ids)
			ids = ids[:0]
		}
	}

	runTo(2000)
	at2k := liveHeap()
	runTo(20000)
	at20k := liveHeap()
	t.Logf("live heap %.1f MiB after 2k jobs, %.1f MiB after 20k", float64(at2k)/(1<<20), float64(at20k)/(1<<20))
	if at20k > at2k+4<<20 {
		t.Errorf("live heap grew %.1f MiB from 2k to 20k finished jobs, want at most 4 MiB",
			float64(at20k-at2k)/(1<<20))
	}

	var list struct {
		Jobs []JobResponse `json:"jobs"`
	}
	if err := json.Unmarshal(serve(h, http.MethodGet, "/jobs", nil).Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) > keptJobs {
		t.Errorf("GET /jobs lists %d jobs, want at most %d", len(list.Jobs), keptJobs)
	}
}

// TestDatasetAnswerOutlivesItsJob: a dataset job's answer lives in its
// result slot, so once the scheduler has forgotten the job a repeat still
// answers 200 cached with the identical report and no new work, while the
// job's own ID answers 404 naming the rule.
func TestDatasetAnswerOutlivesItsJob(t *testing.T) {
	srv, sc, ts := newTestServer(t, sched.Config{Devices: 1}, Options{})
	spec := pathology.Representative()
	spec.Tiles = 1
	d := pathology.Generate(spec)
	req := JobRequest{DatasetID: putOK(t, ts.URL, "outlives", d).ID}
	resp, body := postJSON(t, ts.URL+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var first JobResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, ts.URL, first.ID)
	if done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, entries := srv.results.counts(); entries == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the finished report never entered its result slot")
		}
	}

	tiny := tilepass.PolyTask{A: d.Pairs[0].A[:1], B: d.Pairs[0].B[:1]}
	for i := 0; i < keptJobs+76; i++ {
		id, err := sc.SubmitJob(memSource([]tilepass.PolyTask{tiny}), sched.JobOpts{Name: "unrelated"})
		if err != nil {
			t.Fatal(err)
		}
		if js, err := sc.Wait(context.Background(), id); err != nil || js.State != sched.Done {
			t.Fatalf("unrelated job %s ended %v (%v)", id, js.State, err)
		}
	}
	rec := serve(srv.Handler(), http.MethodGet, "/jobs/"+first.ID, nil)
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "forgotten") {
		t.Fatalf("GET /jobs/%s after the flood = %d %s, want 404 naming the rule", first.ID, rec.Code, rec.Body)
	}

	launches := func() (n int64) {
		for _, d := range sc.DeviceStats() {
			n += d.Launches
		}
		return n
	}
	launchesBefore, submitted := launches(), sc.Stats().Submitted
	resp, body = postJSON(t, ts.URL+"/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat = %d, want 200: %s", resp.StatusCode, body)
	}
	var again JobResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != "done" || !strings.HasPrefix(again.ID, "cached-") {
		t.Fatalf("repeat answered %+v, want a cached-<hex> done answer", again)
	}
	if !reflect.DeepEqual(again.Report, done.Report) {
		t.Fatalf("repeat report %+v, want the original %+v", again.Report, done.Report)
	}
	if launches() != launchesBefore || sc.Stats().Submitted != submitted {
		t.Fatal("the cached repeat ran new work")
	}
}
