package server

// FuzzJobRequest hardens the job-submission surface the same way FuzzParse
// hardens the polygon text format: arbitrary JSON bodies must never panic
// the decoder or the validation, and every accepted request must satisfy the
// invariants the handlers rely on. Bodies naming a generated input ("corpus",
// "spec") or inline polygon text ("tasks") fail at decode: JobRequest has no
// such field.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/compare"
	"repro/internal/store"
)

func FuzzJobRequest(f *testing.F) {
	f.Add([]byte(`{"corpus":"oligoastroIII_1"}`))
	f.Add([]byte(`{"spec":{"Name":"x","Seed":1,"Tiles":2}}`))
	f.Add([]byte(`{"dataset_id":"` + strings.Repeat("ab", 32) + `","corpus":"oligoastroIII_1"}`))
	f.Add([]byte(`{"tasks":[{"tile":0,"raw_a":"MA==","raw_b":"MA=="}]}`))
	f.Add([]byte(`{"dataset_id":"` + strings.Repeat("ab", 32) + `"}`))
	f.Add([]byte(`{"dataset_id":"../../etc/passwd"}`))
	f.Add([]byte(`{"dataset_id":"` + strings.Repeat("AB", 32) + `"}`))
	f.Add([]byte(`{"dataset_a":"` + strings.Repeat("ab", 32) + `","dataset_b":"` + strings.Repeat("cd", 32) + `"}`))
	f.Add([]byte(`{"dataset_a":"` + strings.Repeat("ab", 32) + `"}`))
	f.Add([]byte(`{"dataset_b":"` + strings.Repeat("ab", 32) + `"}`))
	f.Add([]byte(`{"dataset_a":"x","dataset_b":"y"}`))
	f.Add([]byte(`{"dataset_a":"` + strings.Repeat("ab", 32) + `","dataset_b":"` + strings.Repeat("ab", 32) + `","dataset_id":"` + strings.Repeat("ab", 32) + `"}`))
	f.Add([]byte(`{"tasks":[{"tile":0,"raw_a":"MA==","raw_b":"MA=="}],"spec":{"Name":"x","Tiles":1}}`))
	f.Add([]byte(`{"dataset_a":"` + strings.Repeat("ab", 32) + `","dataset_b":"` + strings.Repeat("cd", 32) + `","corpus":"oligoastroIII_1"}`))
	f.Add([]byte(`{"spec":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req JobRequest
		if err := dec.Decode(&req); err != nil {
			return // rejected at the decode layer, as the handler would
		}
		if err := checkRequest(req); err != nil {
			return
		}
		// Invariants of accepted requests.
		forms := 0
		if req.DatasetID != "" {
			forms++
		}
		if req.DatasetA != "" || req.DatasetB != "" {
			forms++
		}
		if forms != 1 {
			t.Fatalf("checkRequest accepted %d input forms: %+v", forms, req)
		}
		if req.DatasetID != "" && !store.ValidateID(req.DatasetID) {
			t.Fatalf("checkRequest accepted malformed dataset ID %q", req.DatasetID)
		}
		if req.DatasetA != "" || req.DatasetB != "" {
			if !store.ValidateID(req.DatasetA) || !store.ValidateID(req.DatasetB) {
				t.Fatalf("checkRequest accepted malformed cross pair %q/%q", req.DatasetA, req.DatasetB)
			}
		}
		if cacheKey(req) == "" {
			t.Fatalf("accepted request %+v has no cache key", req)
		}
	})
}

// FuzzMatrixRequest hardens the matrix surface: arbitrary dataset-ID lists,
// bipartite axes, and progressive objectives must never panic
// compare.RunSpec.Validate (MatrixRequest is that spec), and every accepted
// request satisfies the invariants the orchestrator relies on (axes mutually
// exclusive, 2..max valid distinct IDs per axis — or both bipartite axes
// non-empty — and objectives within range). The body can never set the
// server-side fields (tenant, prelude).
func FuzzMatrixRequest(f *testing.F) {
	idA := strings.Repeat("ab", 32)
	idB := strings.Repeat("cd", 32)
	f.Add([]byte(`{"datasets":["` + idA + `","` + idB + `"]}`))
	f.Add([]byte(`{"datasets":["` + idA + `","` + idB + `","` + strings.Repeat("ef", 32) + `"],"name":"x"}`))
	f.Add([]byte(`{"datasets":["` + idA + `"]}`))
	f.Add([]byte(`{"datasets":["` + idA + `","` + idA + `"]}`))
	f.Add([]byte(`{"datasets":["../../etc/passwd","` + idB + `"]}`))
	f.Add([]byte(`{"datasets":[]}`))
	f.Add([]byte(`{"datasets":null}`))
	f.Add([]byte(`{"tasks":[{"tile":0,"raw_a":"MA==","raw_b":"MA=="}],"spec":{"Name":"x","Tiles":1}}`))
	f.Add([]byte(`{"dataset_a":"` + strings.Repeat("ab", 32) + `","dataset_b":"` + strings.Repeat("cd", 32) + `","corpus":"oligoastroIII_1"}`))
	f.Add([]byte(`{"spec":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"set_a":["` + idA + `"],"set_b":["` + idB + `"]}`))
	f.Add([]byte(`{"set_a":["` + idA + `"],"set_b":["` + idA + `"]}`))
	f.Add([]byte(`{"set_a":["` + idA + `"]}`))
	f.Add([]byte(`{"set_b":["` + idB + `"]}`))
	f.Add([]byte(`{"datasets":["` + idA + `","` + idB + `"],"set_a":["` + idA + `"],"set_b":["` + idB + `"]}`))
	f.Add([]byte(`{"set_a":["` + idA + `","` + idA + `"],"set_b":["` + idB + `"]}`))
	f.Add([]byte(`{"datasets":["` + idA + `","` + idB + `"],"top_k":3,"min_similarity":0.5}`))
	f.Add([]byte(`{"datasets":["` + idA + `","` + idB + `"],"top_k":-1}`))
	f.Add([]byte(`{"datasets":["` + idA + `","` + idB + `"],"min_similarity":1.5}`))
	f.Add([]byte(`{"datasets":["` + idA + `","` + idB + `"],"min_similarity":-0.1}`))
	f.Add([]byte(`{"datasets":["` + idA + `","` + idB + `"],"min_similarity":1e308}`))
	f.Add([]byte(`{"datasets":["` + idA + `","` + idB + `"],"Tenant":"root","Prelude":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req MatrixRequest
		if err := dec.Decode(&req); err != nil {
			return // rejected at the decode layer, as the handler would
		}
		if req.Tenant != "" || req.Prelude != nil {
			t.Fatalf("request body set a server-side field: %+v", req)
		}
		// matrixIDs runs before validation succeeds in no path, but it must
		// still tolerate anything that decodes (startMatrix calls it only
		// after Validate; keep it panic-free regardless).
		_ = matrixIDs(req)
		if err := req.Validate(); err != nil {
			return
		}
		// Invariants of accepted requests.
		bipartite := len(req.SetA) > 0 || len(req.SetB) > 0
		if bipartite {
			if len(req.Datasets) > 0 {
				t.Fatalf("Validate accepted mixed axes: %+v", req)
			}
			if len(req.SetA) == 0 || len(req.SetB) == 0 {
				t.Fatalf("Validate accepted a one-sided bipartite request: %+v", req)
			}
		} else if len(req.Datasets) < 2 || len(req.Datasets) > compare.MaxAxis {
			t.Fatalf("Validate accepted %d datasets", len(req.Datasets))
		}
		for _, axis := range [][]string{req.Datasets, req.SetA, req.SetB} {
			if len(axis) > compare.MaxAxis {
				t.Fatalf("Validate accepted a %d-wide axis", len(axis))
			}
			seen := map[string]struct{}{}
			for _, id := range axis {
				if !store.ValidateID(id) {
					t.Fatalf("Validate accepted malformed ID %q", id)
				}
				if _, dup := seen[id]; dup {
					t.Fatalf("Validate accepted duplicate ID %q", id)
				}
				seen[id] = struct{}{}
			}
		}
		if req.TopK < 0 {
			t.Fatalf("Validate accepted top_k %d", req.TopK)
		}
		if req.MinSimilarity < 0 || req.MinSimilarity > 1 {
			t.Fatalf("Validate accepted min_similarity %v", req.MinSimilarity)
		}
	})
}
