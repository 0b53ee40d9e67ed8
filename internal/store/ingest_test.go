package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/pathology"
)

// TestGoldenSegment pins the write path's output: the content ID and the
// segment file's bytes of one fixed dataset, as they were before AddTile
// encoded into a single buffer. A change to either is a format change.
func TestGoldenSegment(t *testing.T) {
	const (
		wantID      = "24667565db0d6ba7d93181861eed26bd743423087b5e352359e4956b28c32479"
		wantSegment = "ef257a3bbaecf1022b87c166e4f86dd930611360bc95cc345d557345f0c00e24"
	)
	s := openStore(t, t.TempDir())
	man, err := ingestDataset(s, testDataset(t, 4))
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	if man.ID != wantID {
		t.Errorf("dataset ID = %s, want %s", man.ID, wantID)
	}
	raw, err := os.ReadFile(filepath.Join(s.Dir(), man.ID, segmentFile))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != wantSegment {
		t.Errorf("segment file SHA-256 = %x, want %s", sum, wantSegment)
	}
	if man.SegmentBytes != 286192 || man.Polygons != 400 {
		t.Errorf("segment_bytes/polygons = %d/%d, want 286192/400", man.SegmentBytes, man.Polygons)
	}
}

func tmpDirs(t *testing.T, s *Store) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(s.Dir(), tmpPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestReingestReturnsStoredManifest: content the store already holds is
// answered with the stored manifest itself, and the temp copy is gone.
func TestReingestReturnsStoredManifest(t *testing.T) {
	d := testDataset(t, 2)
	s := openStore(t, t.TempDir())
	first, err := ingestDataset(s, d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	second, err := ingestDataset(s, d)
	if err != nil {
		t.Fatalf("second IngestDataset: %v", err)
	}
	if second != first {
		t.Fatalf("re-ingest returned manifest %p, want the stored one %p", second, first)
	}
	if tmps := tmpDirs(t, s); len(tmps) != 0 {
		t.Fatalf("re-ingest left %v behind", tmps)
	}
}

// TestConcurrentIngestSameContent: identical ingests racing each other all
// get one manifest, whichever of Commit's two lookups answers the losers.
func TestConcurrentIngestSameContent(t *testing.T) {
	d := testDataset(t, 2)
	s := openStore(t, t.TempDir())
	mans := make([]*Manifest, 4)
	var wg sync.WaitGroup
	for i := range mans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			man, err := ingestDataset(s, d)
			if err != nil {
				t.Errorf("IngestDataset: %v", err)
			}
			mans[i] = man
		}()
	}
	wg.Wait()
	for _, man := range mans[1:] {
		if man != mans[0] {
			t.Fatalf("racing ingests returned manifests %p and %p", mans[0], man)
		}
	}
	if s.Len() != 1 || len(tmpDirs(t, s)) != 0 {
		t.Fatalf("store holds %d datasets and %v after racing ingests", s.Len(), tmpDirs(t, s))
	}
}

// BenchmarkWriterAddCommit is one 32-tile ingest from parsed polygons: encode,
// digest, append, and Commit's three fsyncs.
func BenchmarkWriterAddCommit(b *testing.B) {
	spec := pathology.Representative()
	spec.Tiles = 32
	d := pathology.Generate(spec)
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	man, err := ingestDataset(s, d) // sizes the segment; deleted so the loop writes again
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(man.SegmentBytes)
	if err := s.Delete(man.ID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		man, err := ingestDataset(s, d)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Delete(man.ID); err != nil { // so that the next one writes again
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
