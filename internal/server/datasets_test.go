package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/geom"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/querylog"
	"repro/internal/sched"
	"repro/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

// datasetPayload encodes a generated dataset as the PUT /datasets body.
func datasetPayload(t *testing.T, d *pathology.Dataset) []byte {
	t.Helper()
	tiles := make([]TilePayload, len(d.Pairs))
	for i, tp := range d.Pairs {
		tiles[i] = TilePayload{
			Image: tp.Image,
			Tile:  tp.Index,
			RawA:  parser.Encode(tp.A),
			RawB:  parser.Encode(tp.B),
		}
	}
	raw, err := json.Marshal(tiles)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func putDataset(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
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

// putOK PUTs d and returns the stored dataset, failing the test on anything
// but 200.
func putOK(t *testing.T, base, name string, d *pathology.Dataset) DatasetResponse {
	t.Helper()
	resp, body := putDataset(t, base+"/datasets?name="+name, datasetPayload(t, d))
	var man DatasetResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &man) != nil {
		t.Fatalf("PUT %s = %d: %s", name, resp.StatusCode, body)
	}
	return man
}

// TestDatasetLifecycle walks the full dataset CRUD surface: ingest, list,
// stat, job by content ID, cached resubmission, delete, and the 404s after.
func TestDatasetLifecycle(t *testing.T) {
	st := testStore(t)
	_, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})

	spec := pathology.Representative()
	spec.Tiles = 3
	d := pathology.Generate(spec)

	resp, body := putDataset(t, ts.URL+"/datasets?name=lifecycle", datasetPayload(t, d))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /datasets status = %d, body %s", resp.StatusCode, body)
	}
	var man DatasetResponse
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}
	if !store.ValidateID(man.ID) || man.Name != "lifecycle" || man.Tiles != 3 || len(man.TileIndex) != 3 {
		t.Fatalf("ingest response = %+v, want 3-tile dataset named lifecycle", man)
	}
	// The ingest lands in the query log: one kind=ingest record carrying
	// the content ID.
	var ql struct {
		Records []querylog.Record `json:"records"`
	}
	getJSON(t, ts.URL+"/querylog?kind=ingest", &ql)
	if len(ql.Records) != 1 || ql.Records[0].ID != man.ID || ql.Records[0].Outcome != querylog.OutcomeIngested {
		t.Fatalf("ingest records %+v, want one %q record for %s", ql.Records, querylog.OutcomeIngested, man.ID)
	}

	// Idempotent re-ingest: same content, same ID, still one dataset.
	resp, body = putDataset(t, ts.URL+"/datasets?name=other", datasetPayload(t, d))
	var again DatasetResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || again.ID != man.ID {
		t.Fatalf("re-ingest returned %d id %s, want 200 with %s", resp.StatusCode, again.ID, man.ID)
	}

	var list struct {
		Datasets []DatasetResponse `json:"datasets"`
	}
	getJSON(t, ts.URL+"/datasets", &list)
	if len(list.Datasets) != 1 || list.Datasets[0].ID != man.ID {
		t.Fatalf("GET /datasets = %+v, want exactly the ingested dataset", list)
	}

	var stat DatasetResponse
	if resp := getJSON(t, ts.URL+"/datasets/"+man.ID, &stat); resp.StatusCode != http.StatusOK {
		t.Fatalf("stat status = %d", resp.StatusCode)
	}
	if stat.ID != man.ID || len(stat.TileIndex) != 3 {
		t.Fatalf("stat = %+v, want full tile index", stat)
	}

	// Job by content ID.
	resp, body = postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job by dataset_id status = %d, body %s", resp.StatusCode, body)
	}
	var job JobResponse
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Name != "lifecycle" {
		t.Errorf("job name %q, want the dataset's name", job.Name)
	}
	done := pollDone(t, ts.URL, job.ID)
	if done.State != "done" {
		t.Fatalf("store-backed job ended %s: %s", done.State, done.Error)
	}

	// Resubmission is served from the content-hash cache.
	resp, body = postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	var cached JobResponse
	if err := json.Unmarshal(body, &cached); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !cached.Cached || cached.ID != job.ID {
		t.Fatalf("resubmission = %d %+v, want cache hit on job %s", resp.StatusCode, cached, job.ID)
	}

	// Delete, then everything 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/datasets/"+man.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", dresp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/datasets/"+man.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stat after delete = %d, want 404", resp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID, NoCache: true})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job on deleted dataset = %d (%s), want 404", resp.StatusCode, body)
	}
}

// TestPutDatasetValidation: malformed bodies and unparseable polygon text
// fail with clear statuses and leave nothing behind in the store.
func TestPutDatasetValidation(t *testing.T) {
	st := testStore(t)
	_, _, ts := newTestServer(t, sched.Config{Devices: 0}, Options{Store: st})

	cases := []struct {
		name string
		body string
		code int
	}{
		{"not an array", `{"tiles": []}`, http.StatusBadRequest},
		{"empty array", `[]`, http.StatusBadRequest},
		{"missing raw", `[{"tile": 0}]`, http.StatusBadRequest},
		{"bad polygon text", `[{"tile": 0, "raw_a": "bm90IGEgcG9seWdvbg==", "raw_b": "bm90IGEgcG9seWdvbg=="}]`,
			http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, body := putDataset(t, ts.URL+"/datasets", []byte(tc.body))
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status = %d (%s), want %d", tc.name, resp.StatusCode, body, tc.code)
		}
	}
	if st.Len() != 0 {
		t.Fatalf("failed ingests left %d datasets in the store", st.Len())
	}
}

// TestPixelExtentIsNotComputeJob: two valid six-vertex polygons spanning
// 2^30 pixels each way, which PUT /datasets accepts, used to pin a CPU
// executor for half a minute per pair. On a service without devices, the
// stored-dataset job (decoded with band tables, then once more from the
// decoded cache) now answers at once, with the pair's closed-form ratio.
func TestPixelExtentIsNotComputeJob(t *testing.T) {
	st := testStore(t)
	_, _, ts := newTestServer(t, sched.Config{Devices: 0}, Options{Store: st})

	const e, h = int64(1) << 30, int64(1) << 29
	p := geom.MustPolygon([]geom.Point{{X: 0, Y: 0}, {X: int32(e), Y: 0}, {X: int32(e), Y: int32(h)},
		{X: int32(h), Y: int32(h)}, {X: int32(h), Y: int32(e)}, {X: 0, Y: int32(e)}})
	q := p.Translate(3, 3)
	inter := (h - 3) * (2*e - h - 3) // piece by piece: (e−3)(h−3) + 3(h−3) + (h−3)(e−h−3)
	want := float64(inter) / float64(2*p.Area()-inter)
	tile := TilePayload{Image: "huge", Tile: 0, RawA: parser.Encode([]*geom.Polygon{p}), RawB: parser.Encode([]*geom.Polygon{q})}

	body, err := json.Marshal([]TilePayload{tile})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := putDataset(t, ts.URL+"/datasets?name=huge", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /datasets = %d, body %s", resp.StatusCode, out)
	}
	var man DatasetResponse
	if err := json.Unmarshal(out, &man); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		req  JobRequest
	}{
		{"stored dataset, decoded", JobRequest{DatasetID: man.ID, NoCache: true}},
		{"stored dataset, cached decode", JobRequest{DatasetID: man.ID, NoCache: true}},
	} {
		resp, out := postJSON(t, ts.URL+"/jobs", tc.req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: POST /jobs = %d, body %s", tc.name, resp.StatusCode, out)
		}
		var job JobResponse
		if err := json.Unmarshal(out, &job); err != nil {
			t.Fatal(err)
		}
		done := pollDone(t, ts.URL, job.ID)
		if done.State != "done" || done.Report == nil {
			t.Fatalf("%s: job ended %+v", tc.name, done)
		}
		if r := done.Report; r.Similarity != want || r.Intersecting != 1 || r.Candidates != 1 || r.PairsOnCPU != 1 {
			t.Errorf("%s: report %+v, want similarity %v over 1 of 1 pairs, on a CPU", tc.name, *r, want)
		}
	}
}
