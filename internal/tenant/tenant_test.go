package tenant

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

const sampleConfig = `{
  "default": {"max_queued_jobs": 4},
  "tenants": [
    {"name": "acme", "token": "tok-acme", "max_bytes": "1MiB", "max_datasets": 2, "max_queued_jobs": 8},
    {"name": "globex", "token": "tok-globex", "max_bytes": 4096}
  ]
}`

func TestParseConfigRoundTrip(t *testing.T) {
	c, err := ParseConfig([]byte(sampleConfig))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if !c.Enabled() {
		t.Fatal("config with tenants reports Enabled() == false")
	}
	q := c.Resolve("tok-acme")
	if q.Name != "acme" || q.MaxBytes != 1<<20 || q.MaxDatasets != 2 || q.MaxQueuedJobs != 8 {
		t.Fatalf("Resolve(tok-acme) = %+v", q)
	}
	if q := c.Resolve("unknown-token"); q.Name != DefaultName || q.MaxQueuedJobs != 4 {
		t.Fatalf("unknown token resolved to %+v, want default with max_queued_jobs=4", q)
	}
	if q := c.Resolve(""); q.Name != DefaultName {
		t.Fatalf("empty token resolved to %+v, want default", q)
	}
	if q, ok := c.ByName("globex"); !ok || q.MaxBytes != 4096 {
		t.Fatalf("ByName(globex) = %+v, %v", q, ok)
	}
	if _, ok := c.ByName("nobody"); ok {
		t.Fatal("ByName(nobody) found a tenant")
	}
	if got := c.QueueLimit("acme"); got != 8 {
		t.Fatalf("QueueLimit(acme) = %d, want 8", got)
	}
	// A name with no local config is bounded like anonymous traffic.
	if got := c.QueueLimit("stranger"); got != 4 {
		t.Fatalf("QueueLimit(stranger) = %d, want the default tenant's 4", got)
	}
}

func TestParseConfigRejections(t *testing.T) {
	cases := map[string]string{
		"default token":     `{"default": {"token": "x"}}`,
		"missing token":     `{"tenants": [{"name": "a"}]}`,
		"invalid name":      `{"tenants": [{"name": "no spaces!", "token": "x"}]}`,
		"empty name":        `{"tenants": [{"name": "", "token": "x"}]}`,
		"duplicate name":    `{"tenants": [{"name": "a", "token": "x"}, {"name": "a", "token": "y"}]}`,
		"duplicate token":   `{"tenants": [{"name": "a", "token": "x"}, {"name": "b", "token": "x"}]}`,
		"default collision": `{"tenants": [{"name": "default", "token": "x"}]}`,
		"negative quota":    `{"tenants": [{"name": "a", "token": "x", "max_datasets": -1}]}`,
		"negative bytes":    `{"tenants": [{"name": "a", "token": "x", "max_bytes": -5}]}`,
		"unknown field":     `{"tenants": [{"name": "a", "token": "x", "max_ponies": 1}]}`,
		"trailing data":     `{"tenants": []} {"again": true}`,
		"bad byte size":     `{"tenants": [{"name": "a", "token": "x", "max_bytes": "lots"}]}`,
	}
	for label, doc := range cases {
		if _, err := ParseConfig([]byte(doc)); err == nil {
			t.Errorf("%s: ParseConfig accepted %s", label, doc)
		}
	}
}

func TestEnabledZeroValue(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config reports Enabled()")
	}
	if q := c.Resolve("anything"); q.Name != DefaultName || q.MaxBytes != 0 {
		t.Fatalf("zero config resolved %+v, want unlimited default", q)
	}
	if got := c.QueueLimit("anyone"); got != 0 {
		t.Fatalf("zero config QueueLimit = %d, want 0 (unlimited)", got)
	}
}

func TestLoadConfigInlineAndFile(t *testing.T) {
	if c, err := LoadConfig("  "); err != nil || c.Enabled() {
		t.Fatalf("blank flag: %+v, %v", c, err)
	}
	if _, err := LoadConfig(`{"tenants": [{"name": "a", "token": "x"}]}`); err != nil {
		t.Fatalf("inline JSON: %v", err)
	}
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(sampleConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadConfig(path)
	if err != nil {
		t.Fatalf("file config: %v", err)
	}
	if q := c.Resolve("tok-globex"); q.Name != "globex" {
		t.Fatalf("file config resolved %+v", q)
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRegistryAttributionLifecycle(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(dir)
	r.Attribute("acme", "ds-1", 100)
	r.Attribute("acme", "ds-2", 50)
	r.Attribute("globex", "ds-1", 100) // shared dataset, charged to both

	if u := r.Usage("acme"); u.Bytes != 150 || u.Datasets != 2 {
		t.Fatalf("acme usage = %+v", u)
	}
	if u := r.Usage("globex"); u.Bytes != 100 || u.Datasets != 1 {
		t.Fatalf("globex usage = %+v", u)
	}
	// Re-ingest is idempotent: the charge updates, it doesn't accumulate.
	r.Attribute("acme", "ds-1", 100)
	if u := r.Usage("acme"); u.Bytes != 150 {
		t.Fatalf("acme usage after re-attribute = %+v", u)
	}

	// Attribution survives a restart.
	r.Close()
	r2 := NewRegistry(dir)
	if u := r2.Usage("acme"); u.Bytes != 150 || u.Datasets != 2 {
		t.Fatalf("reloaded acme usage = %+v", u)
	}

	// Deleting the dataset releases every tenant's charge.
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

// FuzzTenantConfig checks ParseConfig never panics and every accepted config
// upholds its invariants: valid names, unique names and tokens, non-negative
// quotas, and a token on every non-default tenant.
func FuzzTenantConfig(f *testing.F) {
	f.Add(sampleConfig)
	f.Add(`{}`)
	f.Add(`{"default": {"name": "anon", "max_bytes": "16KiB"}}`)
	f.Add(`{"tenants": [{"name": "a", "token": "t"}]}`)
	f.Add(`{"tenants": [{"name": "a", "token": "t", "max_bytes": -1}]}`)
	f.Add(`not json at all`)
	f.Fuzz(func(t *testing.T, doc string) {
		c, err := ParseConfig([]byte(doc))
		if err != nil {
			return
		}
		if !ValidName(c.Default.Name) {
			t.Fatalf("accepted invalid default name %q", c.Default.Name)
		}
		if c.Default.Token != "" {
			t.Fatal("accepted a default tenant with a token")
		}
		names := map[string]bool{c.Default.Name: true}
		tokens := map[string]bool{}
		for _, q := range c.Tenants {
			if !ValidName(q.Name) {
				t.Fatalf("accepted invalid tenant name %q", q.Name)
			}
			if strings.TrimSpace(q.Token) == "" {
				t.Fatalf("accepted tokenless tenant %q", q.Name)
			}
			if names[q.Name] {
				t.Fatalf("accepted duplicate tenant name %q", q.Name)
			}
			if tokens[q.Token] {
				t.Fatalf("accepted duplicate token for tenant %q", q.Name)
			}
			names[q.Name], tokens[q.Token] = true, true
			if q.MaxBytes < 0 || q.MaxDatasets < 0 || q.MaxQueuedJobs < 0 {
				t.Fatalf("accepted negative quota on tenant %q: %+v", q.Name, q)
			}
			if got := c.Resolve(q.Token); got.Name != q.Name {
				t.Fatalf("Resolve(%q) = %q, want %q", q.Token, got.Name, q.Name)
			}
		}
	})
}

// TestRegistryCloseFlushes: changes are not written one by one, and Close
// writes them all — a reload sees exactly the map the registry held.
func TestRegistryCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(dir)
	for i := 0; i < 50; i++ {
		r.Attribute("acme", fmt.Sprintf("ds-%d", i), int64(i))
		r.Attribute("globex", fmt.Sprintf("ds-%d", i), int64(i))
	}
	for i := 0; i < 50; i += 2 {
		r.DropDataset(fmt.Sprintf("ds-%d", i))
	}
	if _, err := os.Stat(filepath.Join(dir, "tenants.json")); err == nil {
		t.Fatal("tenants.json written before the flush delay or Close")
	}
	r.Close()
	r2 := NewRegistry(dir)
	if got, want := r2.All(), r.All(); !reflect.DeepEqual(got, want) || len(want) != 2 {
		t.Fatalf("reloaded usage = %v, want %v", got, want)
	}
	if got, want := r2.Usage("acme"), r.Usage("acme"); got != want || want.Datasets != 25 {
		t.Fatalf("reloaded acme usage = %+v, want %+v", got, want)
	}
	// A closed registry writes through.
	r.Attribute("acme", "late", 7)
	if u := NewRegistry(dir).Usage("acme"); u != r.Usage("acme") {
		t.Fatalf("usage after a post-Close change reloads as %+v, want %+v", u, r.Usage("acme"))
	}
}

// TestRegistryFlushesOnItsOwn: without Close, a change reaches the file once
// the flush delay has passed.
func TestRegistryFlushesOnItsOwn(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(dir)
	defer r.Close()
	r.Attribute("acme", "ds-1", 100)
	deadline := time.Now().Add(10 * flushDelay)
	for NewRegistry(dir).Usage("acme").Bytes != 100 {
		if time.Now().After(deadline) {
			t.Fatal("change never reached tenants.json")
		}
		time.Sleep(flushDelay / 20)
	}
}

// TestRegistryConcurrentChanges: ingests, evictions and Close from several
// goroutines; the file ends up holding the final map.
func TestRegistryConcurrentChanges(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(dir)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("ds-%d-%d", g, i)
				r.Attribute("acme", id, 1)
				if i%3 == 0 {
					r.DropDataset(id)
				}
				if g == 0 && i == 50 {
					r.Close()
				}
			}
		}()
	}
	wg.Wait()
	r.Close()
	if got, want := NewRegistry(dir).Usage("acme"), r.Usage("acme"); got != want || want.Datasets != 4*66 {
		t.Fatalf("reloaded usage = %+v, want %+v", got, want)
	}
}
