package server

// Job input forms: every form a job can arrive in names stored datasets,
// reaches the scheduler as decoded tiles read from the store, and answers
// what the paper's text pipeline answers over the same polygons.

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/store"
)

// TestInputFormsOneAnswer submits one generated 4-tile corpus in three
// forms — its content ID, a cross job pairing its set A with its set B
// stored in another dataset, and its content ID after a PUT /datasets of its
// text — and requires each report to equal, bit for bit and tile partials
// included, pipeline.Run over the corpus's text. Every form must read its
// tiles from the store.
func TestInputFormsOneAnswer(t *testing.T) {
	spec := pathology.Representative()
	spec.Name = "forms"
	spec.Tiles = 4
	d := pathology.Generate(spec)
	files := pathologytest.Tasks(d)
	want, err := pipeline.Run(files, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	holder := testStoreAt(t, t.TempDir())
	man, err := pathologytest.Ingest(holder, d)
	if err != nil {
		t.Fatal(err)
	}
	// setB holds the corpus's set B under the same tile keys, beside a set A
	// that makes its content (and ID) differ from man's.
	tilesB := make([]store.IngestTile, len(d.Pairs))
	for i, tp := range d.Pairs {
		tilesB[i] = store.IngestTile{Image: tp.Image, Tile: tp.Index, A: tp.B, B: tp.B}
	}
	setB, err := holder.Ingest("forms-b", tilesB)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		opts Options
		req  JobRequest
		put  bool // PUT the corpus's text first and submit the ID it answers
	}{
		{"dataset_id", Options{Store: holder}, JobRequest{DatasetID: man.ID}, false},
		{"dataset_a+dataset_b", Options{Store: holder}, JobRequest{DatasetA: man.ID, DatasetB: setB.ID}, false},
		{"PUT then dataset_id", Options{}, JobRequest{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, sc, ts := newTestServer(t, sched.Config{Devices: 2}, c.opts)
			if c.put {
				c.req.DatasetID = putOK(t, ts.URL, "forms", d).ID
			}
			c.req.NoCache = true
			resp, body := postJSON(t, ts.URL+"/jobs", c.req)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", resp.StatusCode, body)
			}
			var jr JobResponse
			if err := json.Unmarshal(body, &jr); err != nil {
				t.Fatal(err)
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
			if reads := srv.Registry().Snapshot()["sccgd_store_tile_read_seconds_count"]; reads == 0 {
				t.Fatal("no tile read from the store, want the job to read from it")
			}
		})
	}
}
