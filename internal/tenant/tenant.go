// Package tenant is sccgd's multi-tenant identity and quota layer: a
// token-keyed tenant configuration (LogBase's tenant-partitioned access
// idea, PAPERS.md), per-tenant usage accounting over the content-addressed
// store.
//
// Identity is resolved from the request's bearer token; unknown or absent
// tokens fall into the default tenant, so an unconfigured daemon behaves
// exactly as before. Quotas bound three things: bytes attributed to the
// tenant in the store, datasets attributed to the tenant, and jobs the
// tenant may hold queued at once. Attribution is charged at ingest to the
// ingesting tenant; a dataset two tenants both ingested is charged to both
// (content addressing dedups the bytes on disk, but a tenant can never
// free-ride under another tenant's upload), and deleting the dataset
// releases every tenant's charge.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"repro/internal/retention"
)

// DefaultName is the tenant unknown and anonymous tokens resolve to.
const DefaultName = "default"

// nameRE bounds tenant names to metric-label-safe, header-safe tokens.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidName reports whether s is an acceptable tenant name: 1-64 chars of
// [A-Za-z0-9._-], starting alphanumeric. Names appear verbatim as metric
// label values and in logs, so the charset is deliberately narrow (no
// escaping surprises).
func ValidName(s string) bool { return nameRE.MatchString(s) }

// ByteSize is an int64 byte count that unmarshals from either a JSON number
// or a human-readable string ("512MiB", "1.5 GB").
type ByteSize int64

// UnmarshalJSON accepts numbers and retention.ParseBytes strings.
func (b *ByteSize) UnmarshalJSON(data []byte) error {
	s := strings.TrimSpace(string(data))
	if len(s) > 0 && s[0] == '"' {
		var str string
		if err := json.Unmarshal(data, &str); err != nil {
			return err
		}
		n, err := retention.ParseBytes(str)
		if err != nil {
			return err
		}
		*b = ByteSize(n)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("tenant: negative byte size %d", n)
	}
	*b = ByteSize(n)
	return nil
}

// MarshalJSON renders the plain byte count.
func (b ByteSize) MarshalJSON() ([]byte, error) { return json.Marshal(int64(b)) }

// Quota is one tenant's identity and limits. Zero limits mean unlimited —
// quotas are opt-in per dimension.
type Quota struct {
	// Name identifies the tenant in metrics, logs, and the query log.
	Name string `json:"name"`
	// Token is the bearer token that resolves to this tenant. Required for
	// configured tenants, forbidden on the default (which is what every
	// unmatched token already resolves to).
	Token string `json:"token,omitempty"`
	// MaxBytes caps the store bytes attributed to the tenant. 0 = unlimited.
	MaxBytes ByteSize `json:"max_bytes,omitempty"`
	// MaxDatasets caps datasets attributed to the tenant. 0 = unlimited.
	MaxDatasets int `json:"max_datasets,omitempty"`
	// MaxQueuedJobs caps how many of the tenant's jobs may sit queued at
	// once (enforced atomically inside the scheduler). 0 = unlimited.
	MaxQueuedJobs int `json:"max_queued_jobs,omitempty"`
}

// Config is the parsed -tenants configuration.
type Config struct {
	// Default is the tenant unknown tokens fall into. Its Name defaults to
	// "default"; its quotas bound anonymous traffic.
	Default Quota `json:"default"`
	// Tenants are the token-keyed tenants.
	Tenants []Quota `json:"tenants"`

	byToken map[string]Quota
	byName  map[string]Quota
}

// Enabled reports whether the config carries anything beyond the implicit
// unlimited default tenant.
func (c Config) Enabled() bool {
	return len(c.Tenants) > 0 || c.Default.MaxBytes > 0 ||
		c.Default.MaxDatasets > 0 || c.Default.MaxQueuedJobs > 0
}

// Resolve maps a bearer token to its tenant; unknown or empty tokens get
// the default tenant.
func (c Config) Resolve(token string) Quota {
	if token != "" {
		if q, ok := c.byToken[token]; ok {
			return q
		}
	}
	return c.defaultQuota()
}

// ByName looks a tenant up by name (a matrix run keeps its tenant's name,
// never the token).
func (c Config) ByName(name string) (Quota, bool) {
	if name == c.defaultQuota().Name {
		return c.defaultQuota(), true
	}
	q, ok := c.byName[name]
	return q, ok
}

// QueueLimit returns the queued-job cap for the named tenant (0 =
// unlimited) — the scheduler's atomic admission callback.
func (c Config) QueueLimit(name string) int {
	if q, ok := c.ByName(name); ok {
		return q.MaxQueuedJobs
	}
	// A name this node has no config for: bound it like anonymous traffic.
	return c.defaultQuota().MaxQueuedJobs
}

func (c Config) defaultQuota() Quota {
	d := c.Default
	if d.Name == "" {
		d.Name = DefaultName
	}
	return d
}

// ParseConfig parses and validates a tenants configuration document.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("tenant: parse config: %w", err)
	}
	if dec.More() {
		return Config{}, errors.New("tenant: trailing data after config document")
	}
	if c.Default.Token != "" {
		return Config{}, errors.New("tenant: default tenant must not have a token")
	}
	c.Default = c.defaultQuota()
	if !ValidName(c.Default.Name) {
		return Config{}, fmt.Errorf("tenant: invalid default tenant name %q", c.Default.Name)
	}
	c.byToken = make(map[string]Quota, len(c.Tenants))
	c.byName = make(map[string]Quota, len(c.Tenants))
	for i, q := range c.Tenants {
		if !ValidName(q.Name) {
			return Config{}, fmt.Errorf("tenant: tenant %d: invalid name %q (want 1-64 chars of [A-Za-z0-9._-])", i, q.Name)
		}
		if q.Name == c.Default.Name {
			return Config{}, fmt.Errorf("tenant: tenant %q collides with the default tenant", q.Name)
		}
		if strings.TrimSpace(q.Token) == "" {
			return Config{}, fmt.Errorf("tenant: tenant %q has no token (unreachable)", q.Name)
		}
		if strings.TrimSpace(q.Token) != q.Token {
			return Config{}, fmt.Errorf("tenant: tenant %q: token has surrounding whitespace", q.Name)
		}
		if q.MaxBytes < 0 || q.MaxDatasets < 0 || q.MaxQueuedJobs < 0 {
			return Config{}, fmt.Errorf("tenant: tenant %q: quotas must be non-negative", q.Name)
		}
		if _, dup := c.byName[q.Name]; dup {
			return Config{}, fmt.Errorf("tenant: duplicate tenant name %q", q.Name)
		}
		if _, dup := c.byToken[q.Token]; dup {
			return Config{}, fmt.Errorf("tenant: tenant %q: token already assigned", q.Name)
		}
		c.byName[q.Name] = q
		c.byToken[q.Token] = q
	}
	if c.Default.MaxBytes < 0 || c.Default.MaxDatasets < 0 || c.Default.MaxQueuedJobs < 0 {
		return Config{}, errors.New("tenant: default tenant: quotas must be non-negative")
	}
	return c, nil
}

// LoadConfig reads a tenants configuration from the -tenants flag value:
// inline JSON when the value starts with '{', otherwise a file path.
func LoadConfig(pathOrJSON string) (Config, error) {
	s := strings.TrimSpace(pathOrJSON)
	if s == "" {
		return Config{}, nil
	}
	if strings.HasPrefix(s, "{") {
		return ParseConfig([]byte(s))
	}
	data, err := os.ReadFile(s)
	if err != nil {
		return Config{}, fmt.Errorf("tenant: read config: %w", err)
	}
	return ParseConfig(data)
}

// Usage is one tenant's accounted footprint.
type Usage struct {
	Bytes    int64 `json:"bytes"`
	Datasets int   `json:"datasets"`
}

// usageFile is the persisted attribution map: schema-tagged so a future
// layout change can migrate it.
type usageFile struct {
	Schema string                      `json:"schema"`
	Owners map[string]map[string]int64 `json:"owners"` // dataset ID → tenant → bytes
}

const usageSchema = "sccg-tenants/1"

// flushDelay is how long a change to the attribution map may wait before
// tenants.json is rewritten. The file is advisory and never fsynced, and
// rewriting it means marshalling every dataset's owners: once per delay bounds
// that cost however fast datasets come and go, and a crash loses at most this
// much attribution.
const flushDelay = time.Second

// Registry tracks which tenant ingested which dataset and the byte charge,
// persisting the attribution next to the store so quotas survive a restart.
// Changes reach the file within flushDelay, or when Close is called. All
// methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	path   string // "" = in-memory only
	owners map[string]map[string]int64
	// flush is the pending write; nil when the file holds what owners does.
	flush *time.Timer
	// closed makes every later change write through: no timer outlives Close.
	closed bool
}

// NewRegistry creates a usage registry. When dir is non-empty, attribution
// is persisted to dir/tenants.json and reloaded from it; load errors start
// the registry empty (attribution is advisory accounting, never worth
// refusing boot over).
func NewRegistry(dir string) *Registry {
	r := &Registry{owners: make(map[string]map[string]int64)}
	if dir == "" {
		return r
	}
	r.path = filepath.Join(dir, "tenants.json")
	data, err := os.ReadFile(r.path)
	if err != nil {
		return r
	}
	var f usageFile
	if json.Unmarshal(data, &f) == nil && f.Schema == usageSchema && f.Owners != nil {
		r.owners = f.Owners
	}
	return r
}

// Attribute charges the dataset's bytes to the tenant. Re-attributing the
// same dataset to the same tenant updates the charge (content addressing
// makes re-ingest idempotent, so the charge must be too).
func (r *Registry) Attribute(tenantName, datasetID string, bytes int64) {
	if tenantName == "" || datasetID == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.owners[datasetID]
	if m == nil {
		m = make(map[string]int64)
		r.owners[datasetID] = m
	}
	m[tenantName] = bytes
	r.saveLocked()
}

// DropDataset releases every tenant's charge for the dataset — wired into
// the store's delete hook so eviction, DELETE /datasets, and GC all release
// quota in the same stroke.
func (r *Registry) DropDataset(datasetID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.owners[datasetID]; !ok {
		return
	}
	delete(r.owners, datasetID)
	r.saveLocked()
}

// Usage returns the tenant's accounted footprint.
func (r *Registry) Usage(tenantName string) Usage {
	r.mu.Lock()
	defer r.mu.Unlock()
	var u Usage
	for _, m := range r.owners {
		if b, ok := m[tenantName]; ok {
			u.Bytes += b
			u.Datasets++
		}
	}
	return u
}

// All returns every tenant with non-zero usage, for gauges and the admin
// listing.
func (r *Registry) All() map[string]Usage {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Usage)
	for _, m := range r.owners {
		for t, b := range m {
			u := out[t]
			u.Bytes += b
			u.Datasets++
			out[t] = u
		}
	}
	return out
}

// saveLocked schedules the attribution map to be persisted, unless a write is
// pending already.
func (r *Registry) saveLocked() {
	switch {
	case r.path == "":
	case r.closed:
		r.writeLocked()
	case r.flush == nil:
		r.flush = time.AfterFunc(flushDelay, func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.flush != nil { // else Close got there first
				r.flush = nil
				r.writeLocked()
			}
		})
	}
}

// Close writes any pending change. The registry stays usable; changes made
// after Close are written as they happen.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.flush != nil {
		r.flush.Stop()
		r.flush = nil
		r.writeLocked()
	}
}

// writeLocked persists the attribution map atomically (tmp + rename),
// best-effort: accounting must never fail the ingest that triggered it.
func (r *Registry) writeLocked() {
	data, err := json.Marshal(usageFile{Schema: usageSchema, Owners: r.owners})
	if err != nil {
		return
	}
	tmp := r.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, r.path)
}
