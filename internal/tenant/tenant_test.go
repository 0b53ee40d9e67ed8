package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
