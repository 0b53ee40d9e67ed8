package tenant

// Tests of tenant attribution and its log: durability on return, the
// liveness gate against deletes, the boot gate, the one-time import of an
// older tenants.json, damaged records, replay reproducing the registry, and
// compaction.

import (
	"bytes"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/wal"
)

// fakeStore is a store index for the liveness gate: every dataset is held
// until remove.
type fakeStore struct {
	mu   sync.Mutex
	gone map[string]bool
}

func (s *fakeStore) live(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.gone[id]
}

// remove takes id out of the index, as the store does before its delete
// hook runs.
func (s *fakeStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone == nil {
		s.gone = make(map[string]bool)
	}
	s.gone[id] = true
}

// openAt opens the registry in dir over st, its log lines in logs (nil
// discards them).
func openAt(t *testing.T, dir string, st *fakeStore, logs *bytes.Buffer) *Registry {
	t.Helper()
	if logs == nil {
		logs = new(bytes.Buffer)
	}
	return Open(dir, st.live, slog.New(slog.NewTextHandler(logs, nil)))
}

// attribute charges bytes for id to name and fails the test on an error.
func attribute(t testing.TB, r *Registry, name, id string, bytes int64) {
	t.Helper()
	if err := r.Attribute(name, id, bytes); err != nil {
		t.Errorf("Attribute(%s, %s): %v", name, id, err)
	}
}

// charges returns the registry's dataset → tenant → bytes map.
func charges(r *Registry) map[string]map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]map[string]int64, len(r.owners))
	for id, m := range r.owners {
		out[id] = make(map[string]int64, len(m))
		for name, b := range m {
			out[id][name] = b
		}
	}
	return out
}

func sameCharges(a, b map[string]map[string]int64) bool {
	return maps.EqualFunc(a, b, func(x, y map[string]int64) bool { return maps.Equal(x, y) })
}

func TestRegistryAttributionLifecycle(t *testing.T) {
	dir := t.TempDir()
	st := new(fakeStore)
	r := openAt(t, dir, st, nil)
	attribute(t, r, "acme", "ds-1", 100)
	attribute(t, r, "acme", "ds-2", 50)
	attribute(t, r, "globex", "ds-1", 100) // shared dataset, charged to both

	if u := r.Usage("acme"); u.Bytes != 150 || u.Datasets != 2 {
		t.Fatalf("acme usage = %+v", u)
	}
	if u := r.Usage("globex"); u.Bytes != 100 || u.Datasets != 1 {
		t.Fatalf("globex usage = %+v", u)
	}
	// Re-ingest is idempotent: the charge updates, it doesn't accumulate.
	attribute(t, r, "acme", "ds-1", 100)
	if u := r.Usage("acme"); u.Bytes != 150 {
		t.Fatalf("acme usage after re-attribute = %+v", u)
	}

	// Attribution survives a restart.
	r2 := openAt(t, dir, st, nil)
	if u := r2.Usage("acme"); u.Bytes != 150 || u.Datasets != 2 {
		t.Fatalf("reloaded acme usage = %+v", u)
	}

	// Deleting the dataset releases every tenant's charge.
	st.remove("ds-1")
	r2.DropDataset("ds-1")
	if u := r2.Usage("acme"); u.Bytes != 50 || u.Datasets != 1 {
		t.Fatalf("acme usage after DropDataset = %+v", u)
	}
	if u := r2.Usage("globex"); u.Bytes != 0 || u.Datasets != 0 {
		t.Fatalf("globex usage after DropDataset = %+v", u)
	}
	if all := r2.All(); len(all) != 1 || all["acme"] != (Usage{Bytes: 50, Datasets: 1}) {
		t.Fatalf("All() = %v", all)
	}
}

// TestAttributeDurableOnReturn: a registry that is never closed, as after a
// crash, reopens with every charge whose Attribute returned, and a
// one-dataset quota is as full as before.
func TestAttributeDurableOnReturn(t *testing.T) {
	dir := t.TempDir()
	st := new(fakeStore)
	attribute(t, openAt(t, dir, st, nil), "acme", "ds-1", 100)
	if u := openAt(t, dir, st, nil).Usage("acme"); u != (Usage{Bytes: 100, Datasets: 1}) {
		t.Fatalf("usage after a crash = %+v, want the one dataset", u)
	}
}

// TestAttributeAfterDeleteChargesNoOne: a charge for a dataset the store
// has already removed, as when a DELETE lands between an ingest's commit and
// its attribution, is never made; racing the two from both sides leaves no
// charge for any removed dataset, in memory or after a reopen.
func TestAttributeAfterDeleteChargesNoOne(t *testing.T) {
	dir := t.TempDir()
	st := new(fakeStore)
	r := openAt(t, dir, st, nil)
	st.remove("ds-gone")
	r.DropDataset("ds-gone")
	attribute(t, r, "acme", "ds-gone", 100)
	if u := r.Usage("acme"); u != (Usage{}) {
		t.Fatalf("usage after attributing a removed dataset = %+v", u)
	}

	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("ds-%d", i)
		wg.Add(2)
		go func() {
			defer wg.Done()
			attribute(t, r, "acme", id, 1)
		}()
		go func() {
			defer wg.Done()
			st.remove(id)
			r.DropDataset(id)
		}()
	}
	wg.Wait()
	if u := r.Usage("acme"); u != (Usage{}) {
		t.Fatalf("usage after racing attributes and deletes = %+v", u)
	}
	if u := openAt(t, dir, new(fakeStore), nil).Usage("acme"); u != (Usage{}) {
		t.Fatalf("reopened usage = %+v", u)
	}
}

// TestBootReleasesOwnersOfMissingDatasets: a dataset that left the store
// without its release record (a crash between the two) is released at boot,
// with a logged count, and stays released.
func TestBootReleasesOwnersOfMissingDatasets(t *testing.T) {
	dir := t.TempDir()
	st := new(fakeStore)
	r := openAt(t, dir, st, nil)
	attribute(t, r, "acme", "ds-1", 100)
	attribute(t, r, "acme", "ds-2", 50)
	attribute(t, r, "globex", "ds-2", 50)
	st.remove("ds-2")

	var logs bytes.Buffer
	boot := openAt(t, dir, st, &logs)
	if u := boot.Usage("acme"); u != (Usage{Bytes: 100, Datasets: 1}) {
		t.Fatalf("acme usage after boot = %+v", u)
	}
	if u := boot.Usage("globex"); u != (Usage{}) {
		t.Fatalf("globex usage after boot = %+v", u)
	}
	if !strings.Contains(logs.String(), "count=1") {
		t.Fatalf("boot did not log one release:\n%s", logs.String())
	}
	// The release is a record: a boot that sees the dataset again (a
	// re-ingest waits for its own attribution) does not bring the charge back.
	if u := openAt(t, dir, new(fakeStore), nil).Usage("globex"); u != (Usage{}) {
		t.Fatalf("globex usage after a second boot = %+v", u)
	}
}

// TestLegacyTenantsJSONImportedOnce: an older daemon's tenants.json is read
// into the log once and removed; a file of that name that is not one stays.
func TestLegacyTenantsJSONImportedOnce(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "tenants.json")
	doc := `{"schema":"sccg-tenants/1","owners":{"ds-1":{"acme":100},"ds-2":{"acme":5,"globex":7}}}`
	if err := os.WriteFile(legacy, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]int64{"ds-1": {"acme": 100}, "ds-2": {"acme": 5, "globex": 7}}
	var logs bytes.Buffer
	st := new(fakeStore)
	if got := charges(openAt(t, dir, st, &logs)); !sameCharges(got, want) {
		t.Fatalf("imported charges = %v, want %v", got, want)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("tenants.json still there after the import: %v", err)
	}
	if !strings.Contains(logs.String(), "datasets=2") {
		t.Fatalf("the import logged no count:\n%s", logs.String())
	}
	logs.Reset()
	if got := charges(openAt(t, dir, st, &logs)); !sameCharges(got, want) {
		t.Fatalf("charges after the next boot = %v, want %v", got, want)
	}
	if strings.Contains(logs.String(), "imported") {
		t.Fatalf("the second boot imported again:\n%s", logs.String())
	}

	other := t.TempDir()
	config := filepath.Join(other, "tenants.json")
	if err := os.WriteFile(config, []byte(sampleConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	if all := openAt(t, other, st, nil).All(); len(all) != 0 {
		t.Fatalf("a tenants config file was imported as usage: %v", all)
	}
	if _, err := os.Stat(config); err != nil {
		t.Fatalf("a tenants config file was removed: %v", err)
	}
}

// logOffsets returns where each record of the tenants log in dir starts.
func logOffsets(t *testing.T, dir string) []int64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "tenants.log"))
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	var off int64
	wal.Replay(raw, func(_ byte, _ []byte, n int64) error {
		offs = append(offs, off)
		off += n
		return nil
	}, func(off int64, err error) { t.Fatalf("record at %d: %v", off, err) })
	return offs
}

// TestBootSkipsDamagedTenantRecords: a log cut inside its last owner record,
// or with a byte flipped inside an owner or a release record, boots with
// every other record, one logged warning, and a later charge survives the
// next boot. A lost release is made good by the boot gate.
func TestBootSkipsDamagedTenantRecords(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(raw []byte, offs []int64) []byte
		want   map[string]map[string]int64
		msg    string
	}{
		{"torn owner tail", func(raw []byte, offs []int64) []byte {
			return raw[:offs[3]+(int64(len(raw))-offs[3])/2]
		}, map[string]map[string]int64{"ds-1": {"acme": 10}}, "torn tail"},
		{"flipped owner", func(raw []byte, offs []int64) []byte {
			raw[(offs[1]+offs[2])/2] ^= 0x20
			return raw
		}, map[string]map[string]int64{"ds-2": {"acme": 20}}, "skipped tenant record"},
		{"flipped release", func(raw []byte, offs []int64) []byte {
			raw[(offs[2]+offs[3])/2] ^= 0x20
			return raw
		}, map[string]map[string]int64{"ds-1": {"acme": 10}, "ds-2": {"acme": 20}}, "skipped tenant record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := new(fakeStore)
			r := openAt(t, dir, st, nil)
			attribute(t, r, "acme", "ds-0", 5)
			attribute(t, r, "acme", "ds-1", 10)
			st.remove("ds-0")
			r.DropDataset("ds-0")
			attribute(t, r, "acme", "ds-2", 20)
			offs := logOffsets(t, dir)
			if len(offs) != 4 {
				t.Fatalf("log holds %d records, want 4", len(offs))
			}
			path := filepath.Join(dir, "tenants.log")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(raw, offs), 0o644); err != nil {
				t.Fatal(err)
			}

			var logs bytes.Buffer
			boot := openAt(t, dir, st, &logs)
			if got := charges(boot); !sameCharges(got, tc.want) {
				t.Fatalf("boot holds %v, want %v", got, tc.want)
			}
			if got := strings.Count(logs.String(), "level=WARN"); got != 1 || !strings.Contains(logs.String(), tc.msg) {
				t.Fatalf("boot logged %d warnings, want one %q:\n%s", got, tc.msg, logs.String())
			}

			attribute(t, boot, "globex", "ds-3", 30)
			want := maps.Clone(tc.want)
			want["ds-3"] = map[string]int64{"globex": 30}
			if got := charges(openAt(t, dir, st, nil)); !sameCharges(got, want) {
				t.Fatalf("second boot holds %v, want %v", got, want)
			}
		})
	}
}

// TestReplayReproducesRegistry: after each kind of change the log reopens to
// exactly the registry that wrote it.
func TestReplayReproducesRegistry(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, r *Registry, st *fakeStore)
	}{
		{"attribute and release", func(t *testing.T, r *Registry, st *fakeStore) {
			for i := 0; i < 50; i++ {
				attribute(t, r, "acme", fmt.Sprintf("ds-%d", i), int64(i))
				attribute(t, r, "globex", fmt.Sprintf("ds-%d", i), int64(i))
			}
			for i := 0; i < 50; i += 2 {
				st.remove(fmt.Sprintf("ds-%d", i))
				r.DropDataset(fmt.Sprintf("ds-%d", i))
			}
		}},
		{"charge updated", func(t *testing.T, r *Registry, st *fakeStore) {
			attribute(t, r, "acme", "ds-1", 100)
			attribute(t, r, "acme", "ds-1", 70)
			attribute(t, r, "acme", "ds-2", 1)
		}},
		{"release of an unowned dataset", func(t *testing.T, r *Registry, st *fakeStore) {
			attribute(t, r, "acme", "ds-1", 100)
			st.remove("ds-pulled")
			r.DropDataset("ds-pulled")
		}},
		{"concurrent", func(t *testing.T, r *Registry, st *fakeStore) {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						id := fmt.Sprintf("ds-%d-%d", g, i)
						attribute(t, r, "acme", id, 1)
						if i%3 == 0 {
							st.remove(id)
							r.DropDataset(id)
						}
					}
				}()
			}
			wg.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := new(fakeStore)
			r := openAt(t, dir, st, nil)
			tc.run(t, r, st)
			want := charges(r)
			if len(want) == 0 {
				t.Fatal("the sequence left no charge")
			}
			boot := openAt(t, dir, st, nil)
			if got := charges(boot); !sameCharges(got, want) {
				t.Fatalf("the log reopens to %v, the registry holds %v", got, want)
			}
			if got, want := boot.All(), r.All(); !maps.Equal(got, want) {
				t.Fatalf("reopened usage = %v, want %v", got, want)
			}
		})
	}
}

// TestRegistryConcurrentChanges: ingests and evictions from several
// goroutines; the log reopens to the final map.
func TestRegistryConcurrentChanges(t *testing.T) {
	dir := t.TempDir()
	st := new(fakeStore)
	r := openAt(t, dir, st, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("ds-%d-%d", g, i)
				attribute(t, r, "acme", id, 1)
				if i%3 == 0 {
					st.remove(id)
					r.DropDataset(id)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := openAt(t, dir, st, nil).Usage("acme"), r.Usage("acme"); got != want || want.Datasets != 4*66 {
		t.Fatalf("reloaded usage = %+v, want %+v", got, want)
	}
}

// TestTenantLogCompacts: once release records outweigh the owners and the
// floor, the next commit rewrites the log to exactly the owner records.
func TestTenantLogCompacts(t *testing.T) {
	dir := t.TempDir()
	st := new(fakeStore)
	r := openAt(t, dir, st, nil)
	attribute(t, r, "acme", "ds-kept", 100)
	long := strings.Repeat("x", 1000)
	for i := 0; !r.wal.CompactDue(); i++ {
		id := fmt.Sprintf("%s-%d", long, i)
		st.remove(id)
		r.DropDataset(id)
	}
	attribute(t, r, "globex", "ds-kept", 100) // its commit compacts

	fi, err := os.Stat(filepath.Join(dir, "tenants.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != r.wal.Live || len(logOffsets(t, dir)) != 2 {
		t.Fatalf("after the commit the log is %d bytes, %d live, %d records", fi.Size(), r.wal.Live, len(logOffsets(t, dir)))
	}
	if got, want := charges(openAt(t, dir, st, nil)), charges(r); !sameCharges(got, want) {
		t.Fatalf("the compacted log reopens to %v, the registry holds %v", got, want)
	}
}

// TestAttributeFailsWithoutLog: when the log cannot be opened, every
// Attribute fails and nothing is charged.
func TestAttributeFailsWithoutLog(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openAt(t, file, new(fakeStore), nil) // the log's directory is a regular file
	if err := r.Attribute("acme", "ds-1", 100); err == nil {
		t.Fatal("Attribute succeeded without a log")
	}
	if u := r.Usage("acme"); u != (Usage{}) {
		t.Fatalf("usage = %+v, want none", u)
	}
	r.DropDataset("ds-1") // logs, does not panic
}
