package main

// Retention end-to-end acceptance test: with -store-max-bytes and
// -cache-max-entries set, a loop of distinct datasets, each stored and
// compared, keeps the store and the result store under their bounds while
// every job still completes — pinning guarantees no running job's dataset is
// swept out from under it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/pathology"
	"repro/internal/retention"
)

func bootDaemon(t *testing.T, args []string) (base string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, args, func(addr string) { ready <- addr })
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

// runStoredJob stores one generated dataset, submits a job by its ID and
// polls it to done, returning the job ID.
func runStoredJob(t *testing.T, base string, seed int64) string {
	t.Helper()
	d := pathology.Generate(pathology.DatasetSpec{Name: "retention-e2e", Seed: seed, Tiles: 1,
		Gen: pathology.DefaultGenConfig()})
	body, _ := json.Marshal(map[string]any{"dataset_id": putDataset(t, base, "retention-e2e", d)})
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	decodeBody(t, resp, &job, http.StatusAccepted)
	deadline := time.Now().Add(60 * time.Second)
	for job.State != "done" && job.State != "failed" && job.State != "canceled" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", job.ID, job.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, &job, http.StatusOK)
	}
	if job.State != "done" {
		t.Fatalf("job %s (seed %d) ended %s: %s", job.ID, seed, job.State, job.Error)
	}
	return job.ID
}

// storeBytes sums segment_bytes over GET /datasets.
func storeBytes(t *testing.T, base string) (int64, int) {
	t.Helper()
	var list struct {
		Datasets []struct {
			SegmentBytes int64 `json:"segment_bytes"`
		} `json:"datasets"`
	}
	resp, err := http.Get(base + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &list, http.StatusOK)
	var total int64
	for _, d := range list.Datasets {
		total += d.SegmentBytes
	}
	return total, len(list.Datasets)
}

func metricValue(t *testing.T, base, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v float64
			fmt.Sscanf(fields[1], "%g", &v)
			return v, true
		}
	}
	return 0, false
}

func TestDaemonRetentionEndToEnd(t *testing.T) {
	dataDir := t.TempDir()

	// Boot 1: measure one dataset's footprint so the budget below is sized
	// in datasets, not guessed bytes.
	base, stop := bootDaemon(t, []string{"-addr", "127.0.0.1:0", "-devices", "1", "-data-dir", dataDir})
	runStoredJob(t, base, 100)
	unit, n := storeBytes(t, base)
	if n != 1 || unit <= 0 {
		t.Fatalf("measuring boot holds %d datasets / %d bytes, want exactly 1", n, unit)
	}
	stop()

	// Boot 2: a budget that fits two datasets (with headroom for per-seed
	// size variance) but never three, a 2-entry persisted-cache cap, and a
	// fast sweep.
	budget := unit*2 + unit/2
	base, stop = bootDaemon(t, []string{
		"-addr", "127.0.0.1:0",
		"-devices", "1",
		"-data-dir", dataDir,
		"-store-max-bytes", fmt.Sprintf("%d", budget),
		"-cache-max-entries", "2",
		"-store-sweep", "50ms",
	})
	defer stop()

	// A loop of distinct datasets, each ingested and compared under byte
	// pressure. Every job must complete: its own dataset is pinned for the
	// job's lifetime, so the concurrent sweeps can only take cold ones.
	for seed := int64(101); seed <= 106; seed++ {
		runStoredJob(t, base, seed)
	}

	// The sweeper converges the store under the budget and the persisted
	// cache under its entry cap.
	deadline := time.Now().Add(15 * time.Second)
	for {
		total, _ := storeBytes(t, base)
		persisted, ok := metricValue(t, base, "sccgd_cache_persisted_entries")
		if total <= budget && ok && persisted <= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention never converged: store %d bytes (budget %d), persisted entries %g",
				total, budget, persisted)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The store still serves what survived: a job against a kept dataset
	// works (by ID, cached or recomputed — either is correct).
	var list struct {
		Datasets []struct {
			ID string `json:"id"`
		} `json:"datasets"`
	}
	resp, err := http.Get(base + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &list, http.StatusOK)
	if len(list.Datasets) == 0 {
		t.Fatal("retention evicted everything; the budget fits two datasets")
	}
	body, _ := json.Marshal(map[string]any{"dataset_id": list.Datasets[0].ID})
	jresp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK && jresp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(jresp.Body)
		t.Fatalf("job against surviving dataset = %d: %s", jresp.StatusCode, raw)
	}

	// The retention surface is live: counters exported, GC on demand.
	if evicted, ok := metricValue(t, base, "sccgd_retention_datasets_evicted_total"); !ok || evicted < 4 {
		t.Errorf("sccgd_retention_datasets_evicted_total = %g (present %v), want >= 4", evicted, ok)
	}
	gcResp, err := http.Post(base+"/gc", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sw retention.Sweep
	decodeBody(t, gcResp, &sw, http.StatusOK)
	if sw.StoreBytes > budget {
		t.Errorf("post-GC store %d bytes exceeds the %d budget", sw.StoreBytes, budget)
	}
}

// TestRetentionFlagValidation: retention flags demand -data-dir and reject
// malformed sizes, and the result-store bound and the pool flags reject
// negatives, without booting anything.
func TestRetentionFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-store-max-bytes", "1GiB"},
		{"-store-ttl", "1h"},
	} {
		if err := run(context.Background(), args, nil); err == nil ||
			!strings.Contains(err.Error(), "-data-dir") {
			t.Errorf("run(%v) = %v, want a -data-dir requirement error", args, err)
		}
	}
	if err := run(context.Background(), []string{"-store-max-bytes", "wat", "-data-dir", t.TempDir()}, nil); err == nil {
		t.Error("malformed -store-max-bytes was accepted")
	}
	if err := run(context.Background(), []string{"-store-ttl", "-5s", "-data-dir", t.TempDir()}, nil); err == nil {
		t.Error("negative -store-ttl was accepted")
	}
	if err := run(context.Background(), []string{"-cache-max-entries", "-1"}, nil); err == nil {
		t.Error("negative -cache-max-entries was accepted")
	}
	// The pool flags too: a negative count names its flag instead of
	// quietly meaning CPU-only, GOMAXPROCS workers or the default depth.
	for _, flag := range []string{"-devices", "-workers", "-queue"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		served := false
		err := run(ctx, []string{"-addr", "127.0.0.1:0", flag, "-3"}, func(string) { served = true; cancel() })
		cancel()
		if served || err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("run(%s -3): served %v, err %v; want an error naming the flag", flag, served, err)
		}
	}
}

// FuzzRetentionFlags hardens retention flag parsing: arbitrary flag values
// must never panic, and every accepted combination yields a sane policy
// (non-negative bounds; active exactly when something is bounded).
func FuzzRetentionFlags(f *testing.F) {
	f.Add("512MiB", int64(time.Hour), int64(time.Minute))
	f.Add("", int64(0), int64(0))
	f.Add("1e309", int64(-1), int64(1))
	f.Add("0x41", int64(time.Second), int64(0))
	f.Fuzz(func(t *testing.T, storeMax string, ttlNS, sweepNS int64) {
		pol, err := retentionPolicy(storeMax, time.Duration(ttlNS), time.Duration(sweepNS))
		if err != nil {
			return
		}
		if pol.MaxBytes < 0 || pol.TTL < 0 || pol.SweepInterval < 0 {
			t.Fatalf("retentionPolicy(%q, %d, %d) accepted negative bounds: %+v",
				storeMax, ttlNS, sweepNS, pol)
		}
		wantActive := pol.MaxBytes > 0 || pol.TTL > 0
		if pol.Active() != wantActive {
			t.Fatalf("policy %+v reports Active()=%v", pol, pol.Active())
		}
	})
}
