package server

// Job input forms: every form a job can arrive in reaches the scheduler as
// decoded tiles, and all of them answer what the paper's text pipeline
// answers over the same polygons.

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/querylog"
	"repro/internal/retention"
	"repro/internal/sched"
	"repro/internal/store"
)

// TestInputFormsOneAnswer submits one generated 4-tile corpus in five forms —
// spec with a store, spec without one, spec degraded by a store budget
// smaller than the dataset, its polygon text as tasks, and its content ID —
// and requires each report to equal, bit for bit and tile partials included,
// pipeline.Run over the corpus's text. The store-backed forms must read
// their tiles from the store. A sixth form, POST /compare, sends the first
// tile's text and must answer pipeline.Run over that tile.
func TestInputFormsOneAnswer(t *testing.T) {
	spec := pathology.Representative()
	spec.Name = "forms"
	spec.Tiles = 4
	d := pathology.Generate(spec)
	files := pipeline.EncodeDataset(d)
	want, err := pipeline.Run(files, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]TaskPayload, len(files))
	for i, f := range files {
		tasks[i] = TaskPayload{Image: f.Image, Tile: f.Tile, RawA: f.RawA, RawB: f.RawB}
	}
	holder := testStoreAt(t, t.TempDir())
	man, err := holder.IngestDataset(d)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		opts      Options
		req       JobRequest
		degraded  bool
		fromStore bool
	}{
		{"spec with a store", Options{Store: testStoreAt(t, t.TempDir())}, JobRequest{Spec: &spec}, false, true},
		{"spec without a store", Options{}, JobRequest{Spec: &spec}, false, false},
		{"spec degraded", Options{Store: testStoreAt(t, t.TempDir()), Retention: retention.Policy{
			MaxBytes: store.DatasetBytes(d) - 1, SweepInterval: time.Hour}}, JobRequest{Spec: &spec}, true, false},
		{"tasks", Options{}, JobRequest{Tasks: tasks}, false, false},
		{"dataset_id", Options{Store: holder}, JobRequest{DatasetID: man.ID}, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, sc, ts := newTestServer(t, sched.Config{Devices: 2}, c.opts)
			c.req.NoCache = true
			resp, body := postJSON(t, ts.URL+"/jobs", c.req)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", resp.StatusCode, body)
			}
			var jr JobResponse
			if err := json.Unmarshal(body, &jr); err != nil {
				t.Fatal(err)
			}
			if jr.Degraded != c.degraded {
				t.Fatalf("degraded = %v, want %v", jr.Degraded, c.degraded)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			st, err := sc.Wait(ctx, jr.ID)
			if err != nil || st.State != sched.Done {
				t.Fatalf("job ended %v (%v): %s", st.State, err, st.Error)
			}
			got := st.Report
			if got.Similarity != want.Similarity || got.Intersecting != want.Intersecting ||
				got.Candidates != want.Candidates || !reflect.DeepEqual(got.TileRatios, want.TileRatios) {
				t.Fatalf("report (%.17g, %d, %d, %v), text pipeline (%.17g, %d, %d, %v)",
					got.Similarity, got.Intersecting, got.Candidates, got.TileRatios,
					want.Similarity, want.Intersecting, want.Candidates, want.TileRatios)
			}
			reads := srv.Registry().Snapshot()["sccgd_store_tile_read_seconds_count"]
			if fromStore := reads > 0; fromStore != c.fromStore {
				t.Fatalf("%v tiles read from the store, want the job to read from it: %v", reads, c.fromStore)
			}
		})
	}
	t.Run("compare", func(t *testing.T) {
		one, err := pipeline.Run(files[:1], pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, ts := newTestServer(t, sched.Config{Devices: 2}, Options{})
		resp, body := postJSON(t, ts.URL+"/compare", CompareRequest{RawA: files[0].RawA, RawB: files[0].RawB})
		var got CompareResult
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil {
			t.Fatalf("compare = %d: %s", resp.StatusCode, body)
		}
		if want := (CompareResult{one.Similarity, one.Intersecting, one.Candidates}); got != want {
			t.Fatalf("compare (%.17g, %d, %d), text pipeline (%.17g, %d, %d)", got.Similarity,
				got.Intersecting, got.Candidates, want.Similarity, want.Intersecting, want.Candidates)
		}
	})
}

// TestSpecIngestLogged: the ingest a spec job performs is recorded in the
// query log like a PUT /datasets one — one kind=ingest record carrying the
// content ID.
func TestSpecIngestLogged(t *testing.T) {
	st := testStoreAt(t, t.TempDir())
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})
	spec := qosSpec("logged", 5, 2)
	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{Spec: &spec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	if st.Len() != 1 {
		t.Fatalf("spec job ingested %d datasets, want 1", st.Len())
	}
	var ql struct {
		Records []querylog.Record `json:"records"`
	}
	getJSON(t, ts.URL+"/querylog?kind=ingest", &ql)
	if len(ql.Records) != 1 {
		t.Fatalf("%d ingest records, want 1: %+v", len(ql.Records), ql.Records)
	}
	if rec := ql.Records[0]; rec.ID != st.List()[0].ID || rec.Outcome != querylog.OutcomeIngested {
		t.Fatalf("ingest record %+v, want outcome %q for dataset %s", rec, querylog.OutcomeIngested, st.List()[0].ID)
	}
}
