package retention

import (
	"testing"
	"time"

	"repro/internal/pathology"
	"repro/internal/pathologytest"
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

// ingest stores a small generated dataset; image names the tile key
// namespace so distinct images never dedup.
func ingest(t *testing.T, s *store.Store, image string, seed int64) *store.Manifest {
	t.Helper()
	spec := pathology.Representative()
	spec.Name = image
	spec.Seed = seed
	spec.Tiles = 1
	man, err := pathologytest.Ingest(s, pathology.Generate(spec))
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	return man
}

// TestSweepTTL: datasets unused past the TTL are evicted; recently used
// ones survive, regardless of when they were created.
func TestSweepTTL(t *testing.T) {
	s := testStore(t)
	old := ingest(t, s, "ttl-old", 1)
	fresh := ingest(t, s, "ttl-fresh", 2)
	now := time.Now().UTC()
	s.TouchAt(old.ID, now.Add(-2*time.Hour))
	s.TouchAt(fresh.ID, now)

	e := New(Config{Store: s, Policy: Policy{TTL: time.Hour}})
	sw := e.Sweep()
	if sw.TTLEvicted != 1 || sw.BudgetEvicted != 0 {
		t.Fatalf("sweep = %+v, want exactly 1 TTL eviction", sw)
	}
	if _, ok := s.Get(old.ID); ok {
		t.Error("TTL-expired dataset survived the sweep")
	}
	if _, ok := s.Get(fresh.ID); !ok {
		t.Error("recently used dataset was evicted")
	}
	if sw.StoreBytes != s.TotalBytes() || sw.Datasets != 1 {
		t.Errorf("sweep reported store %d bytes/%d datasets, store says %d/%d",
			sw.StoreBytes, sw.Datasets, s.TotalBytes(), s.Len())
	}
}

// TestSweepByteBudgetRespectsLastUse: under byte pressure the LRU victim is
// the dataset with the oldest *last use*, not the oldest Created — a dataset
// ingested first but touched recently must outlive one ingested later but
// never used since.
func TestSweepByteBudgetRespectsLastUse(t *testing.T) {
	s := testStore(t)
	first := ingest(t, s, "lru-first", 1) // older Created
	second := ingest(t, s, "lru-second", 2)
	now := time.Now().UTC()
	// Invert recency vs creation order: the older dataset is the hot one.
	s.TouchAt(first.ID, now)
	s.TouchAt(second.ID, now.Add(-time.Hour))

	// A budget that fits one dataset but not both.
	budget := s.TotalBytes() - 1
	e := New(Config{Store: s, Policy: Policy{MaxBytes: budget}})
	sw := e.Sweep()
	if sw.BudgetEvicted != 1 || sw.TTLEvicted != 0 {
		t.Fatalf("sweep = %+v, want exactly 1 budget eviction", sw)
	}
	if _, ok := s.Get(second.ID); ok {
		t.Error("least-recently-used dataset survived byte pressure")
	}
	if _, ok := s.Get(first.ID); !ok {
		t.Error("recently used dataset was evicted despite older Created")
	}
	if s.TotalBytes() > budget {
		t.Errorf("store still %d bytes over a %d budget", s.TotalBytes(), budget)
	}
}

// TestSweepPinnedSurvives: a pinned dataset survives any byte pressure; the
// sweep reports the skip and evicts it only after Unpin.
func TestSweepPinnedSurvives(t *testing.T) {
	s := testStore(t)
	man := ingest(t, s, "pinned", 7)
	if err := s.Pin(man.ID); err != nil {
		t.Fatalf("Pin: %v", err)
	}

	e := New(Config{Store: s, Policy: Policy{MaxBytes: 1}})
	sw := e.Sweep()
	if sw.PinnedSkipped != 1 || sw.BudgetEvicted != 0 {
		t.Fatalf("sweep = %+v, want the pinned dataset skipped", sw)
	}
	if _, ok := s.Get(man.ID); !ok {
		t.Fatal("pinned dataset was evicted")
	}

	s.Unpin(man.ID)
	if sw := e.Sweep(); sw.BudgetEvicted != 1 {
		t.Fatalf("post-unpin sweep = %+v, want 1 budget eviction", sw)
	}
	if s.Len() != 0 {
		t.Error("unpinned dataset survived byte pressure")
	}
}

// TestSweepTTLAndBudgetCompose: TTL evicts an expired dataset even when the
// store is under budget, and the byte budget evicts an unexpired one when
// the total still does not fit — both in a single pass.
func TestSweepTTLAndBudgetCompose(t *testing.T) {
	s := testStore(t)
	expired := ingest(t, s, "compose-expired", 1)
	colder := ingest(t, s, "compose-colder", 2)
	hot := ingest(t, s, "compose-hot", 3)
	now := time.Now().UTC()
	s.TouchAt(expired.ID, now.Add(-3*time.Hour))
	s.TouchAt(colder.ID, now.Add(-30*time.Minute))
	s.TouchAt(hot.ID, now)

	// Budget fits two datasets; only "expired" is past the 1h TTL. One pass
	// must TTL-evict it and then stop — the remaining two fit the budget.
	budget := s.TotalBytes() - 1
	e := New(Config{Store: s, Policy: Policy{TTL: time.Hour, MaxBytes: budget}})
	sw := e.Sweep()
	if sw.TTLEvicted != 1 || sw.BudgetEvicted != 0 {
		t.Fatalf("sweep = %+v, want 1 TTL eviction only", sw)
	}

	// Shrink the budget below the two survivors: the colder one goes for
	// bytes even though its TTL has not expired.
	e2 := New(Config{Store: s, Policy: Policy{TTL: time.Hour, MaxBytes: s.TotalBytes() - 1}})
	sw = e2.Sweep()
	if sw.BudgetEvicted != 1 || sw.TTLEvicted != 0 {
		t.Fatalf("second sweep = %+v, want 1 budget eviction only", sw)
	}
	if _, ok := s.Get(hot.ID); !ok {
		t.Error("hottest dataset did not survive both bounds")
	}
	if _, ok := s.Get(colder.ID); ok {
		t.Error("colder dataset survived byte pressure")
	}
}

// TestLastUseSurvivesReopen: TouchAt persists into the manifest, so LRU
// ordering survives a restart.
func TestLastUseSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := ingest(t, s, "reopen", 5)
	stamp := time.Now().UTC().Add(-42 * time.Minute).Truncate(time.Second)
	s.TouchAt(man.ID, stamp)

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(man.ID)
	if !ok {
		t.Fatal("dataset lost across reopen")
	}
	if !got.LastUse().Equal(stamp) {
		t.Fatalf("reopened last-use = %s, want %s", got.LastUse(), stamp)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"1024", 1024},
		{"1KB", 1000},
		{"1KiB", 1024},
		{"512MiB", 512 << 20},
		{"512 MiB", 512 << 20},
		{"2gb", 2e9},
		{"1.5GiB", 3 << 29},
		{"3TiB", 3 << 40},
		{"7B", 7},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "   ", "-1", "1XB", "GiB", "1e400", "NaN", "0x10", "9223372036854775807KiB"} {
		if got, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want error", bad, got)
		}
	}
}
