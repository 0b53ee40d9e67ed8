package sccg_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/store"
)

// TestServiceMatchesDirectEngine is the PR's acceptance test: a job served
// by the sccgd service stack returns the same similarity as a direct
// Engine.CrossCompareDataset call over the same tasks, and a repeated
// submission is answered from cache without new GPU launches.
func TestServiceMatchesDirectEngine(t *testing.T) {
	spec := sccg.Representative()
	spec.Tiles = 4
	tasks := sccg.EncodeDataset(sccg.GenerateDataset(spec))

	eng := sccg.NewEngine(sccg.Options{})
	direct, err := eng.CrossCompareDataset(tasks)
	if err != nil {
		t.Fatalf("direct engine run: %v", err)
	}

	svc := sccg.NewService(sccg.ServiceOptions{Devices: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	upload := make([]map[string]any, len(tasks))
	for i, task := range tasks {
		upload[i] = map[string]any{"image": task.Image, "tile": task.Tile, "raw_a": task.RawA, "raw_b": task.RawB}
	}
	submit := func() (code int, jr struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
		Report *struct {
			Similarity     float64 `json:"similarity"`
			Intersecting   int     `json:"intersecting"`
			KernelLaunches int64   `json:"kernel_launches"`
		} `json:"report"`
	}) {
		body, _ := json.Marshal(map[string]any{"tasks": upload})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, jr
	}

	code, first := submit()
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	deadline := time.Now().Add(time.Minute)
	var final sccg.JobStatus
	for {
		st, ok := svc.Job(first.ID)
		if !ok {
			t.Fatalf("job %s vanished", first.ID)
		}
		if st.State.Terminal() {
			final = st
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Error != "" {
		t.Fatalf("job failed: %s", final.Error)
	}
	if math.Abs(final.Report.Similarity-direct.Similarity) > 1e-9 {
		t.Errorf("service similarity %.12f != direct %.12f", final.Report.Similarity, direct.Similarity)
	}
	if final.Report.Intersecting != direct.Intersecting || final.Report.Candidates != direct.Candidates {
		t.Errorf("service pair counts (%d, %d) != direct (%d, %d)",
			final.Report.Intersecting, final.Report.Candidates, direct.Intersecting, direct.Candidates)
	}

	launchesBefore := int64(0)
	for _, d := range svc.Scheduler().DeviceStats() {
		launchesBefore += d.Launches
	}
	code, second := submit()
	if code != http.StatusOK || !second.Cached || second.ID != first.ID {
		t.Fatalf("repeat submit = (%d, %+v), want cached hit on %s", code, second, first.ID)
	}
	launchesAfter := int64(0)
	for _, d := range svc.Scheduler().DeviceStats() {
		launchesAfter += d.Launches
	}
	if launchesAfter != launchesBefore {
		t.Errorf("cached submission launched kernels: %d -> %d", launchesBefore, launchesAfter)
	}
}

// TestServiceCompareEndpoint drives POST /compare, a one-tile scheduler job,
// against the facade's error-returning CrossComparePolygonsErr.
func TestServiceCompareEndpoint(t *testing.T) {
	svc := sccg.NewService(sccg.ServiceOptions{Devices: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	d := trimmedRep(1)
	rawA := sccg.EncodePolygons(d.Pairs[0].A)
	rawB := sccg.EncodePolygons(d.Pairs[0].B)

	eng := sccg.NewEngine(sccg.Options{DisableGPU: true})
	wantSim, wantHits, wantCands, err := eng.CrossComparePolygonsErr(d.Pairs[0].A, d.Pairs[0].B)
	if err != nil {
		t.Fatalf("CrossComparePolygonsErr: %v", err)
	}

	body, _ := json.Marshal(map[string]any{"raw_a": rawA, "raw_b": rawB})
	resp, err := http.Post(ts.URL+"/compare", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare status = %d", resp.StatusCode)
	}
	var got struct {
		Similarity   float64 `json:"similarity"`
		Intersecting int     `json:"intersecting"`
		Candidates   int     `json:"candidates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Similarity-wantSim) > 1e-9 || got.Intersecting != wantHits || got.Candidates != wantCands {
		t.Errorf("compare = %+v, want (%.12f, %d, %d)", got, wantSim, wantHits, wantCands)
	}

	// Malformed polygon text is rejected through the error path, not a panic.
	body, _ = json.Marshal(map[string]any{"raw_a": []byte("not a polygon"), "raw_b": rawB})
	resp2, err := http.Post(ts.URL+"/compare", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("malformed compare status = %d, want 422", resp2.StatusCode)
	}
}

// TestErrVariants checks the validating facade variants reject nil polygons
// and surface previously-discarded join statistics.
func TestErrVariants(t *testing.T) {
	d := trimmedRep(1)
	a, b := d.Pairs[0].A, d.Pairs[0].B

	pairs, stats, err := sccg.MatchPairsErr(a, b)
	if err != nil {
		t.Fatalf("MatchPairsErr: %v", err)
	}
	if len(pairs) == 0 || stats.EntriesTested == 0 {
		t.Errorf("MatchPairsErr = %d pairs, stats %+v; want pairs and join stats", len(pairs), stats)
	}
	if got := sccg.MatchPairs(a, b); len(got) != len(pairs) {
		t.Errorf("legacy MatchPairs returned %d pairs, Err variant %d", len(got), len(pairs))
	}

	if _, _, err := sccg.MatchPairsErr([]*sccg.Polygon{nil}, b); err == nil {
		t.Error("MatchPairsErr accepted a nil polygon")
	}

	eng := sccg.NewEngine(sccg.Options{DisableGPU: true})
	if _, err := eng.ComputeAreasErr([]sccg.Pair{{P: nil, Q: nil}}); err == nil {
		t.Error("ComputeAreasErr accepted a nil pair")
	}
	results, err := eng.ComputeAreasErr(pairs)
	if err != nil {
		t.Fatalf("ComputeAreasErr: %v", err)
	}
	if len(results) != len(pairs) {
		t.Errorf("ComputeAreasErr returned %d results for %d pairs", len(results), len(pairs))
	}
}

// TestStoreBackedJobMatchesCrossCompare drives the facade's store surface:
// a dataset ingested through OpenStore/IngestDataset and executed as a
// store-backed job must reproduce the in-process CrossComparePolygons
// result over the same polygon sets bit-for-bit (single tile, so the two
// paths fold ratios in the same order).
func TestStoreBackedJobMatchesCrossCompare(t *testing.T) {
	st, err := sccg.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	spec := sccg.Representative()
	spec.Tiles = 1
	d := sccg.GenerateDataset(spec)
	man, err := sccg.IngestDataset(st, d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}

	svc := sccg.NewService(sccg.ServiceOptions{Devices: 1, Store: st})
	defer svc.Close()
	if svc.Store() != st {
		t.Fatal("Service.Store() does not expose the configured store")
	}
	id, err := svc.SubmitStored(man.ID)
	if err != nil {
		t.Fatalf("SubmitStored: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	job, err := svc.Scheduler().Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if job.Error != "" {
		t.Fatalf("store-backed job failed: %s", job.Error)
	}

	eng := sccg.NewEngine(sccg.Options{})
	sim, hits, cands := eng.CrossComparePolygons(d.Pairs[0].A, d.Pairs[0].B)
	if job.Report.Similarity != sim {
		t.Errorf("store-backed similarity %.17g != CrossComparePolygons %.17g (must be exact)",
			job.Report.Similarity, sim)
	}
	if job.Report.Intersecting != hits || job.Report.Candidates != cands {
		t.Errorf("store-backed counts (%d, %d) != CrossComparePolygons (%d, %d)",
			job.Report.Intersecting, job.Report.Candidates, hits, cands)
	}

	// An unknown content ID fails up front, not at run time.
	if _, err := svc.SubmitStored("0000000000000000000000000000000000000000000000000000000000000000"); err == nil {
		t.Error("SubmitStored accepted an unknown dataset ID")
	}
}

// gatedTile is a one-tile job source that cannot materialize its tile until
// release is closed, so a job over it holds its slot as long as a test needs.
type gatedTile struct {
	release chan struct{}
	task    pipeline.PolyTask
}

func (g gatedTile) Len() int { return 1 }
func (g gatedTile) PolyTask(int) (pipeline.PolyTask, error) {
	<-g.release
	return g.task, nil
}

// checkStoredPins queues a facade submission over stored datasets behind a
// job that holds the service's one worker, and requires every dataset it reads
// to refuse a plain delete until the job is done.
func checkStoredPins(t *testing.T, submit func(svc *sccg.Service, ids []string) (string, error), datasets int) {
	st, err := sccg.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(1); seed <= int64(datasets); seed++ {
		spec := sccg.Representative()
		spec.Tiles, spec.Seed = 2, seed
		man, err := sccg.IngestDataset(st, sccg.GenerateDataset(spec))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, man.ID)
	}
	svc := sccg.NewService(sccg.ServiceOptions{Store: st, Workers: 1})
	defer svc.Close()

	d := trimmedRep(1)
	gate := gatedTile{release: make(chan struct{}), task: pipeline.PolyTask{Image: d.Pairs[0].Image, A: d.Pairs[0].A, B: d.Pairs[0].B}}
	var once sync.Once
	open := func() { once.Do(func() { close(gate.release) }) }
	defer open()
	filler, err := svc.Scheduler().SubmitJob(gate, sched.JobOpts{Name: "filler"})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if js, _ := svc.Job(filler); js.State == sched.Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the filler job never started")
		}
	}

	id, err := submit(svc, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range ids {
		if err := st.Delete(ds); !errors.Is(err, store.ErrPinned) {
			t.Fatalf("Delete(%s) of a queued job's dataset = %v, want ErrPinned", ds[:12], err)
		}
	}
	open()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	job, err := svc.Scheduler().Wait(ctx, id)
	if err != nil || job.State != sched.Done {
		t.Fatalf("job ended %v (%v): %s", job.State, err, job.Error)
	}
	if n := st.PinnedCount(); n != 0 {
		t.Fatalf("%d pins held after the job finished", n)
	}
}

func TestSubmitStoredPins(t *testing.T) {
	checkStoredPins(t, func(svc *sccg.Service, ids []string) (string, error) {
		return svc.SubmitStored(ids[0])
	}, 1)
}

// TestCompareStoredCarriesCross: a facade cross job reports its tile pairing
// on GET /jobs/{id} exactly as a POST /jobs cross job does, and a
// self-comparison, which is the dataset's own job, carries none.
func TestCompareStoredCarriesCross(t *testing.T) {
	st, err := sccg.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		spec := sccg.Representative()
		spec.Tiles, spec.Seed = 2, seed
		man, err := sccg.IngestDataset(st, sccg.GenerateDataset(spec))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, man.ID)
	}
	svc := sccg.NewService(sccg.ServiceOptions{Store: st})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, pair := range [][2]string{{ids[0], ids[1]}, {ids[0], ids[0]}} {
		id, match, err := svc.CompareStored(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(match.Pairs) != 2 {
			t.Fatalf("%d tiles paired, want both", len(match.Pairs))
		}
		if job, err := svc.Scheduler().Wait(ctx, id); err != nil || job.State != sched.Done {
			t.Fatalf("job %s ended %v (%v): %s", id, job.State, err, job.Error)
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+id, nil))
		var resp struct {
			State string `json:"state"`
			Cross *struct {
				MatchedTiles int `json:"matched_tiles"`
			} `json:"cross"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.State != "done" {
			t.Fatalf("GET /jobs/%s = %d %s (%v)", id, rec.Code, rec.Body, err)
		}
		switch self := pair[0] == pair[1]; {
		case self && resp.Cross != nil:
			t.Errorf("self-comparison %s carries a cross block %+v", id, *resp.Cross)
		case !self && resp.Cross == nil:
			t.Errorf("cross job %s has no cross block", id)
		case !self && resp.Cross.MatchedTiles != len(match.Pairs):
			t.Errorf("cross block matched_tiles = %d, want %d", resp.Cross.MatchedTiles, len(match.Pairs))
		}
	}
}

func TestCompareStoredPins(t *testing.T) {
	checkStoredPins(t, func(svc *sccg.Service, ids []string) (string, error) {
		id, _, err := svc.CompareStored(ids[0], ids[1])
		return id, err
	}, 2)
}
