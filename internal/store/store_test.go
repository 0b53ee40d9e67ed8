package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/tilepass"
	"repro/internal/wkb"
)

func testDataset(t *testing.T, tiles int) *pathology.Dataset {
	t.Helper()
	spec := pathology.Representative()
	spec.Tiles = tiles
	return pathology.Generate(spec)
}

// ingestDataset stores a generated dataset under its spec name.
func ingestDataset(s *Store, d *pathology.Dataset) (*Manifest, error) {
	tiles := make([]IngestTile, len(d.Pairs))
	for i, tp := range d.Pairs {
		tiles[i] = IngestTile{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	return s.Ingest(d.Spec.Name, tiles)
}

// datasetTasks encodes a generated dataset's tiles as pipeline text tasks.
func datasetTasks(d *pathology.Dataset) []pipeline.FileTask {
	tasks := make([]pipeline.FileTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		tasks[i] = pipeline.FileTask{Image: tp.Image, Tile: tp.Index, RawA: parser.Encode(tp.A), RawB: parser.Encode(tp.B)}
	}
	return tasks
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestRoundTripByteIdentical is the core durability property: every polygon
// read back from a stored dataset re-marshals to exactly the WKB bytes that
// were written, and a store-served pipeline task is byte-identical to the
// task datasetTasks builds from the same polygons in memory.
func TestRoundTripByteIdentical(t *testing.T) {
	d := testDataset(t, 3)
	s := openStore(t, t.TempDir())
	man, err := ingestDataset(s, d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	if !ValidateID(man.ID) {
		t.Fatalf("manifest ID %q is not a valid content hash", man.ID)
	}
	if len(man.Tiles) != len(d.Pairs) {
		t.Fatalf("manifest has %d tiles, dataset has %d", len(man.Tiles), len(d.Pairs))
	}

	ds, err := s.OpenDataset(man.ID)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	want := datasetTasks(d)
	for i, tp := range d.Pairs {
		a, b, err := ds.ReadTile(i)
		if err != nil {
			t.Fatalf("ReadTile(%d): %v", i, err)
		}
		if len(a) != len(tp.A) || len(b) != len(tp.B) {
			t.Fatalf("tile %d read %d/%d polygons, want %d/%d", i, len(a), len(b), len(tp.A), len(tp.B))
		}
		for j := range a {
			if !bytes.Equal(wkb.Marshal(a[j]), wkb.Marshal(tp.A[j])) {
				t.Fatalf("tile %d set A polygon %d WKB differs after round trip", i, j)
			}
		}
		task, err := ds.Source().Task(i)
		if err != nil {
			t.Fatalf("Source().Task(%d): %v", i, err)
		}
		if task.Image != want[i].Image || task.Tile != want[i].Tile ||
			!bytes.Equal(task.RawA, want[i].RawA) || !bytes.Equal(task.RawB, want[i].RawB) {
			t.Fatalf("store-served task %d differs from the in-memory task", i)
		}
		if got := ds.Source().Weight(i); got != man.Tiles[i].Bytes() || got <= 0 {
			t.Fatalf("Weight(%d) = %d, want manifest tile bytes %d", i, got, man.Tiles[i].Bytes())
		}
	}
}

// TestContentIDStableAcrossIngestOrder: the dataset ID hashes canonical tile
// content, so ingesting the same tiles in reverse order — under a different
// name — deduplicates to the same stored dataset.
func TestContentIDStableAcrossIngestOrder(t *testing.T) {
	d := testDataset(t, 4)
	s := openStore(t, t.TempDir())

	tiles := make([]IngestTile, len(d.Pairs))
	for i, tp := range d.Pairs {
		tiles[i] = IngestTile{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	first, err := s.Ingest("forward", tiles)
	if err != nil {
		t.Fatalf("Ingest forward: %v", err)
	}
	rev := make([]IngestTile, len(tiles))
	for i := range tiles {
		rev[i] = tiles[len(tiles)-1-i]
	}
	second, err := s.Ingest("backward", rev)
	if err != nil {
		t.Fatalf("Ingest backward: %v", err)
	}
	if first.ID != second.ID {
		t.Fatalf("ingest order changed the content ID: %s vs %s", first.ID, second.ID)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d datasets after duplicate ingest, want 1", s.Len())
	}
	if second.Name != "forward" {
		t.Errorf("dedup returned name %q, want the stored dataset's %q", second.Name, "forward")
	}
}

// TestRecoveryRescan: a second Open over the same directory recovers the
// manifest and serves identical tile reads.
func TestRecoveryRescan(t *testing.T) {
	d := testDataset(t, 2)
	dir := t.TempDir()
	man, err := ingestDataset(openStore(t, dir), d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}

	s2 := openStore(t, dir)
	if len(s2.Skipped()) != 0 {
		t.Fatalf("recovery skipped datasets: %v", s2.Skipped())
	}
	got, ok := s2.Get(man.ID)
	if !ok {
		t.Fatalf("dataset %s not recovered", man.ID)
	}
	if got.Name != man.Name || got.SegmentBytes != man.SegmentBytes || got.Polygons != man.Polygons {
		t.Fatalf("recovered manifest differs: %+v vs %+v", got, man)
	}
	ds, err := s2.OpenDataset(man.ID)
	if err != nil {
		t.Fatalf("OpenDataset after recovery: %v", err)
	}
	if _, _, err := ds.ReadTile(0); err != nil {
		t.Fatalf("ReadTile after recovery: %v", err)
	}
}

// TestCorruptSegmentRejected: a flipped byte inside a stored polygon must
// surface as a clear per-tile error naming the dataset, not a panic or a
// silently wrong polygon.
func TestCorruptSegmentRejected(t *testing.T) {
	d := testDataset(t, 1)
	dir := t.TempDir()
	s := openStore(t, dir)
	man, err := ingestDataset(s, d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	seg := filepath.Join(dir, man.ID, "segments.wkb")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ds, err := s.OpenDataset(man.ID)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	_, _, err = ds.ReadTile(0)
	if err == nil {
		t.Fatal("ReadTile returned no error over a corrupted segment")
	}
	if !strings.Contains(err.Error(), man.ID) || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corruption error %q does not name the dataset and corruption", err)
	}
}

// TestTruncatedSegmentSkippedOnOpen: recovery refuses a dataset whose
// segment file does not match its manifest, reporting why, without failing
// the whole store.
func TestTruncatedSegmentSkippedOnOpen(t *testing.T) {
	d := testDataset(t, 2)
	dir := t.TempDir()
	man, err := ingestDataset(openStore(t, dir), d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	seg := filepath.Join(dir, man.ID, "segments.wkb")
	if err := os.Truncate(seg, man.SegmentBytes/2); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	if _, ok := s2.Get(man.ID); ok {
		t.Fatal("truncated dataset was recovered as valid")
	}
	skipped := s2.Skipped()
	if len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "segment") {
		t.Fatalf("Skipped() = %v, want one clear segment-size error", skipped)
	}
}

// TestCorruptManifestSkipped: unparseable manifest JSON is likewise skipped
// with a clear reason.
func TestCorruptManifestSkipped(t *testing.T) {
	d := testDataset(t, 1)
	dir := t.TempDir()
	man, err := ingestDataset(openStore(t, dir), d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	manPath := filepath.Join(dir, man.ID, "manifest.json")
	if err := os.WriteFile(manPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if s2.Len() != 0 {
		t.Fatal("dataset with corrupt manifest was recovered")
	}
	if skipped := s2.Skipped(); len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "manifest") {
		t.Fatalf("Skipped() = %v, want one clear manifest error", skipped)
	}
}

// TestStoreBackedJobMatchesPipeline is the scheduler's differential table:
// on every worker mix — 1, 2 and GOMAXPROCS CPU workers, a GPU beside CPU
// workers, two GPUs — a job over lazy store tile handles gives the bits of
// one pipeline.RunParsed over the same tiles, tile by tile, whether its
// reads miss the decoded cache or hit it.
func TestStoreBackedJobMatchesPipeline(t *testing.T) {
	d := testDataset(t, 6)
	dir := t.TempDir()
	man, err := ingestDataset(openStore(t, dir), d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	configs := []struct {
		name string
		cfg  sched.Config
	}{
		{"cpu x1", sched.Config{Workers: 1}},
		{"cpu x2", sched.Config{Workers: 2}},
		{"cpu x GOMAXPROCS", sched.Config{}},
		{"gpu + cpu x2", sched.Config{Devices: 1, HybridCPU: true, Workers: 2}},
		{"gpu x2", sched.Config{Devices: 2}},
	}
	for _, c := range configs {
		s := openStore(t, dir) // an empty decoded cache: the first job misses
		ds, err := s.OpenDataset(man.ID)
		if err != nil {
			t.Fatalf("OpenDataset: %v", err)
		}
		tasks := make([]tilepass.PolyTask, ds.Source().Len())
		for i := range tasks {
			if tasks[i], err = ds.Source().PolyTask(i); err != nil {
				t.Fatal(err)
			}
		}
		want := runParsed(t, tasks)
		s = openStore(t, dir)
		if ds, err = s.OpenDataset(man.ID); err != nil {
			t.Fatalf("OpenDataset: %v", err)
		}
		sc := sched.New(c.cfg)
		for _, pass := range []string{"miss", "hit"} {
			hits := s.decoded.hits.Load()
			id, err := sc.SubmitJob(ds.Source(), sched.JobOpts{Name: man.Name})
			if err != nil {
				t.Fatalf("SubmitJob: %v", err)
			}
			st, err := sc.Wait(context.Background(), id)
			if err != nil || st.State != sched.Done {
				t.Fatalf("%s, %s: job %v (%v, %q), want done", c.name, pass, st.State, err, st.Error)
			}
			if got := s.decoded.hits.Load() - hits; (pass == "hit") != (got == 2*int64(len(tasks))) {
				t.Fatalf("%s, %s: %d decoded-cache hits for %d tiles", c.name, pass, got, len(tasks))
			}
			sameAnswer(t, c.name+", "+pass, st.Report, want)
		}
		sc.Close()
	}
}

// TestDeleteRemovesDataset: Delete drops the index entry and the directory;
// a lazy reader opened before the delete fails cleanly on its next read.
func TestDeleteRemovesDataset(t *testing.T) {
	d := testDataset(t, 1)
	dir := t.TempDir()
	s := openStore(t, dir)
	man, err := ingestDataset(s, d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	ds, err := s.OpenDataset(man.ID)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	if err := s.Delete(man.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := s.Get(man.ID); ok {
		t.Fatal("deleted dataset still indexed")
	}
	if _, err := os.Stat(filepath.Join(dir, man.ID)); !os.IsNotExist(err) {
		t.Fatalf("dataset directory survives delete: %v", err)
	}
	if _, _, err := ds.ReadTile(0); err == nil {
		t.Fatal("reading a deleted dataset succeeded")
	}
	if err := s.Delete(man.ID); err != ErrNotFound {
		t.Fatalf("second Delete = %v, want ErrNotFound", err)
	}
}

// TestEmptyIngestRejected: committing zero tiles is an error and leaves no
// temp debris behind.
func TestEmptyIngestRejected(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, err := s.Ingest("empty", nil); err != ErrEmpty {
		t.Fatalf("Ingest(nil) = %v, want ErrEmpty", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("empty ingest left %d entries in the store dir", len(entries))
	}
}

// TestDuplicateTileRejected: one ingest cannot contain the same (image,
// tile) twice — the content address would be ambiguous.
func TestDuplicateTileRejected(t *testing.T) {
	d := testDataset(t, 1)
	s := openStore(t, t.TempDir())
	tp := d.Pairs[0]
	tiles := []IngestTile{
		{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B},
		{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B},
	}
	if _, err := s.Ingest("dup", tiles); err == nil || !strings.Contains(err.Error(), "duplicate tile") {
		t.Fatalf("duplicate-tile ingest error = %v, want a clear duplicate error", err)
	}
}

// TestManifestDigestFoldVerified: recovery recomputes the dataset ID from
// the manifest's per-tile digests; a manifest whose tile list no longer
// folds to the directory's content address is rejected.
func TestManifestDigestFoldVerified(t *testing.T) {
	d := testDataset(t, 1)
	dir := t.TempDir()
	man, err := ingestDataset(openStore(t, dir), d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	manPath := filepath.Join(dir, man.ID, "manifest.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), man.Tiles[0].Digest, strings.Repeat("0", 64), 1)
	if tampered == string(raw) {
		t.Fatal("test setup: tile digest not found in manifest JSON")
	}
	if err := os.WriteFile(manPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if _, ok := s2.Get(man.ID); ok {
		t.Fatal("dataset with tampered tile digest was recovered")
	}
	if skipped := s2.Skipped(); len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "content address") {
		t.Fatalf("Skipped() = %v, want a content-address fold error", skipped)
	}
}
