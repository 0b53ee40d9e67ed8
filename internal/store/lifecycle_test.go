package store

// Delete-lifecycle tests: pin refcounts, forced deletes, the clear
// "deleted during job" read error, and the delete hook the server uses to
// cascade cached results.

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDeletePinnedConflicts: Delete refuses a pinned dataset until the last
// Unpin; ForceDelete removes it regardless.
func TestDeletePinnedConflicts(t *testing.T) {
	s := openStore(t, t.TempDir())
	man, err := ingestDataset(s, testDataset(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(man.ID); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if err := s.Pin(man.ID); err != nil {
		t.Fatalf("second Pin: %v", err)
	}
	if !s.Pinned(man.ID) || s.PinnedCount() != 1 {
		t.Fatalf("Pinned=%v PinnedCount=%d, want pinned once-counted dataset", s.Pinned(man.ID), s.PinnedCount())
	}
	if err := s.Delete(man.ID); !errors.Is(err, ErrPinned) {
		t.Fatalf("Delete(pinned) = %v, want ErrPinned", err)
	}
	s.Unpin(man.ID)
	if err := s.Delete(man.ID); !errors.Is(err, ErrPinned) {
		t.Fatalf("Delete with one pin left = %v, want ErrPinned", err)
	}
	s.Unpin(man.ID)
	if err := s.Delete(man.ID); err != nil {
		t.Fatalf("Delete after last Unpin: %v", err)
	}

	// ForceDelete overrides pins.
	man, err = ingestDataset(s, testDataset(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(man.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.ForceDelete(man.ID); err != nil {
		t.Fatalf("ForceDelete(pinned): %v", err)
	}
	if _, ok := s.Get(man.ID); ok {
		t.Error("force-deleted dataset still indexed")
	}
	// Pinning a deleted dataset fails: Pin doubles as the liveness check.
	if err := s.Pin(man.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Pin(deleted) = %v, want ErrNotFound", err)
	}
}

// TestReadAfterForceDeleteReportsLifecycle: a reader opened before a forced
// delete fails with the clear "deleted during job" error, not a raw I/O
// error — what a job's shard reports when its dataset is yanked mid-run.
func TestReadAfterForceDeleteReportsLifecycle(t *testing.T) {
	s := openStore(t, t.TempDir())
	man, err := ingestDataset(s, testDataset(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.OpenDataset(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ForceDelete(man.ID); err != nil {
		t.Fatal(err)
	}
	_, _, err = ds.ReadTile(0)
	if !errors.Is(err, ErrDeleted) {
		t.Fatalf("ReadTile after force delete = %v, want ErrDeleted", err)
	}
	if !strings.Contains(err.Error(), "deleted during job") {
		t.Fatalf("error %q does not state the lifecycle fault", err)
	}

	// Re-ingesting the same content clears the tombstone: a fresh reader
	// works, and a stale reader no longer reports a bogus delete.
	if _, err := ingestDataset(s, testDataset(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.ReadTile(0); err != nil {
		t.Fatalf("ReadTile after re-ingest: %v", err)
	}
}

// TestDeleteHookFiresOnEveryPath: the cascade hook runs for plain and
// forced deletes with the removed ID.
func TestDeleteHookFiresOnEveryPath(t *testing.T) {
	s := openStore(t, t.TempDir())
	var got []string
	s.SetDeleteHook(func(id string) { got = append(got, id) })

	a, err := ingestDataset(s, testDataset(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	b, err := ingestDataset(s, testDataset(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ForceDelete(b.ID); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != a.ID || got[1] != b.ID {
		t.Fatalf("hook saw %v, want [%s %s]", got, a.ID, b.ID)
	}
}

// TestTouchThrottlesManifestWrites: touches within the persist interval
// advance only the in-memory clock (the sweep's source of truth); a touch
// moving the clock past the interval rewrites the manifest.
func TestTouchThrottlesManifestWrites(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	man, err := ingestDataset(s, testDataset(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	near := man.Created.Add(time.Second)
	s.TouchAt(man.ID, near)
	cur, _ := s.Get(man.ID)
	if !cur.LastUse().Equal(near) {
		t.Fatalf("in-memory clock = %s, want %s", cur.LastUse(), near)
	}
	// The sub-interval touch did not hit disk: a reopen sees no last-use.
	if rec, _ := openStore(t, dir).Get(man.ID); !rec.LastUsed.IsZero() {
		t.Fatalf("sub-interval touch was persisted: %s", rec.LastUsed)
	}

	far := man.Created.Add(touchPersistInterval + time.Minute).Truncate(time.Second)
	s.TouchAt(man.ID, far)
	if rec, _ := openStore(t, dir).Get(man.ID); !rec.LastUse().Equal(far) {
		t.Fatalf("past-interval touch not persisted: %s, want %s", rec.LastUse(), far)
	}
}

// TestTouchKeepsManifestValid: a touched manifest still recovers (the
// rewrite must keep every invariant loadManifest enforces) and carries the
// advanced clock; Manifest copies stay immutable for existing holders.
func TestTouchKeepsManifestValid(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	man, err := ingestDataset(s, testDataset(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	before := man.LastUse()
	stamp := time.Now().UTC().Add(time.Hour).Truncate(time.Second)
	s.TouchAt(man.ID, stamp)
	if !man.LastUse().Equal(before) {
		t.Error("Touch mutated a previously returned manifest")
	}
	cur, _ := s.Get(man.ID)
	if !cur.LastUse().Equal(stamp) {
		t.Fatalf("in-memory last-use = %s, want %s", cur.LastUse(), stamp)
	}

	s2 := openStore(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("touched dataset failed recovery: %d datasets, skipped %v", s2.Len(), s2.Skipped())
	}
	rec, _ := s2.Get(man.ID)
	if !rec.LastUse().Equal(stamp) {
		t.Fatalf("recovered last-use = %s, want %s", rec.LastUse(), stamp)
	}
}
