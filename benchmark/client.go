package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

const (
	// pollEvery is how often a client asks GET /jobs/{id} for a running job.
	pollEvery = 2 * time.Millisecond
	// opTimeout fails an operation that has not finished; such an operation
	// also counts as missing every latency figure.
	opTimeout = 30 * time.Second
)

// httpClient keeps connections alive: every workload client reuses one
// connection per daemon, as a resident caller of this API would.
var httpClient = &http.Client{
	Timeout: opTimeout + 5*time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     time.Minute,
	},
}

// jobView is the part of a job response the benchmark reads.
type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Report *struct {
		Similarity   float64 `json:"similarity"`
		Candidates   int     `json:"candidates"`
		Intersecting int     `json:"intersecting"`
	} `json:"report"`
}

func (j jobView) answer() (answer, bool) {
	if j.Report == nil {
		return answer{}, false
	}
	return answer{j.Report.Similarity, j.Report.Candidates, j.Report.Intersecting}, true
}

// call sends one request and decodes a 2xx JSON body into out.
func call(method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// putDataset ingests ds, whose request body the caller has built (so that it
// can be built outside a timed interval), checks that the daemon stored what
// was sent, and returns the content ID.
func putDataset(base string, ds *dataset, body []byte) (string, error) {
	var resp struct {
		ID       string `json:"id"`
		Tiles    int    `json:"tiles"`
		Polygons int    `json:"polygons"`
	}
	if _, err := call(http.MethodPut, base+"/datasets?name="+ds.name, body, &resp); err != nil {
		return "", err
	}
	polys := 0
	for _, t := range ds.tiles {
		polys += len(t.a) + len(t.b)
	}
	if len(resp.ID) != 64 || resp.Tiles != len(ds.tiles) || resp.Polygons != polys {
		return "", fmt.Errorf("PUT %s: stored %d tiles / %d polygons as %q, want %d / %d",
			ds.name, resp.Tiles, resp.Polygons, resp.ID, len(ds.tiles), polys)
	}
	return resp.ID, nil
}

// jobBody is the POST /jobs request for one dataset (a == b) or a cross job.
func jobBody(a, b string, noCache bool) []byte {
	req := map[string]any{}
	if a == b {
		req["dataset_id"] = a
	} else {
		req["dataset_a"], req["dataset_b"] = a, b
	}
	if noCache {
		req["no_cache"] = true
	}
	raw, _ := json.Marshal(req) // a map of strings and a bool cannot fail
	return raw
}

// runJob submits a job and polls it to a terminal state, as a caller that
// waits for its answer does. It returns the final view and the HTTP status
// of the submission (200: answered from a cache tier, 202: computed).
func runJob(base string, body []byte) (jobView, int, error) {
	var jv jobView
	code, err := call(http.MethodPost, base+"/jobs", body, &jv)
	if err != nil {
		return jv, code, err
	}
	deadline := time.Now().Add(opTimeout)
	for jv.State == "queued" || jv.State == "running" {
		if time.Now().After(deadline) {
			return jv, code, fmt.Errorf("job %s still %s after %s", jv.ID, jv.State, opTimeout)
		}
		time.Sleep(pollEvery)
		if _, err := call(http.MethodGet, base+"/jobs/"+jv.ID, nil, &jv); err != nil {
			return jv, code, err
		}
	}
	if jv.State != "done" {
		return jv, code, fmt.Errorf("job %s ended %s: %s", jv.ID, jv.State, jv.Error)
	}
	return jv, code, nil
}

// matrixView is the part of a matrix status the benchmark reads.
type matrixView struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Version int64  `json:"version"`
	Cells   [][]struct {
		State        string  `json:"state"`
		Error        string  `json:"error"`
		Similarity   float64 `json:"similarity"`
		Candidates   int     `json:"candidates"`
		Intersecting int     `json:"intersecting"`
	} `json:"cells"`
}

// runMatrix starts a K-way matrix over ids and long-polls it to the end.
func runMatrix(base string, ids []string) (matrixView, error) {
	var mv matrixView
	raw, _ := json.Marshal(map[string]any{"datasets": ids}) // strings cannot fail
	if _, err := call(http.MethodPost, base+"/matrix", raw, &mv); err != nil {
		return mv, err
	}
	deadline := time.Now().Add(opTimeout)
	for mv.State == "running" {
		if time.Now().After(deadline) {
			return mv, fmt.Errorf("matrix %s still running after %s", mv.ID, opTimeout)
		}
		url := fmt.Sprintf("%s/matrix/%s?wait=1&since=%d", base, mv.ID, mv.Version)
		if _, err := call(http.MethodGet, url, nil, &mv); err != nil {
			return mv, err
		}
	}
	if mv.State != "done" {
		return mv, fmt.Errorf("matrix %s ended %s", mv.ID, mv.State)
	}
	return mv, nil
}
