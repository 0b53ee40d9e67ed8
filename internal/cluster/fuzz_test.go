package cluster_test

// FuzzPeerManifest drives the peer-manifest decoder — the first untrusted
// input a pulling node parses — with hostile bytes. The invariant under fuzz:
// DecodeManifest either errors or returns a manifest that names the requested
// ID and passes the store's full structural validation (including the
// digest-fold-equals-ID check), so no fuzzer-crafted manifest can reach
// store.Import claiming content it doesn't have.

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/store"
)

func FuzzPeerManifest(f *testing.F) {
	fakeID := strings.Repeat("ab", 32)
	f.Add(fakeID, []byte("{"))
	f.Add(fakeID, []byte("null"))
	f.Add(fakeID, []byte(`{"id":"`+fakeID+`"}`))
	f.Add(fakeID, []byte(`{"id":"`+fakeID+`","tiles":[{}]}`))
	f.Add(fakeID, []byte(`{"id":"`+fakeID+`","segment_bytes":-1}`))
	f.Add("not-an-id", []byte(`{"id":"not-an-id","tiles":[]}`))
	f.Add(fakeID, []byte(`{"id":"`+strings.Repeat("cd", 32)+`"}`))

	// One genuinely valid manifest, so the fuzzer explores the accepting path
	// and its mutations probe every validation branch.
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatalf("store.Open: %v", err)
	}
	spec := pathology.Representative()
	spec.Name = "fuzz-seed"
	spec.Seed = 7
	spec.Tiles = 2
	man, err := pathologytest.Ingest(st, pathology.Generate(spec))
	if err != nil {
		f.Fatalf("IngestDataset: %v", err)
	}
	raw, err := json.Marshal(man)
	if err != nil {
		f.Fatalf("Marshal: %v", err)
	}
	f.Add(man.ID, raw)

	f.Fuzz(func(t *testing.T, id string, data []byte) {
		man, err := cluster.DecodeManifest(id, data)
		if err != nil {
			return
		}
		if man == nil {
			t.Fatal("nil manifest with nil error")
		}
		if man.ID != id {
			t.Fatalf("accepted manifest for %q when asked for %q", man.ID, id)
		}
		if err := man.Validate(); err != nil {
			t.Fatalf("accepted manifest fails re-validation: %v", err)
		}
	})
}
