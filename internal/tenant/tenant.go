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
// releases every tenant's charge. Attribution is kept in the node's record
// log (internal/wal), in its own file, <data-dir>/tenants.log: a charge is
// durable before the ingest that made it answers.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"

	"repro/internal/retention"
	"repro/internal/wal"
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

// The records of <data-dir>/tenants.log, the registry's file of the node's
// record log (internal/wal).
const (
	recOwner   = 'o' // an owner's compact JSON: its tenant is charged its bytes
	recRelease = 'r' // a dataset ID, on every delete: every charge for it is gone
)

// owner is an owner record's payload.
type owner struct {
	Dataset string `json:"dataset"`
	Tenant  string `json:"tenant"`
	Bytes   int64  `json:"bytes"`
}

func (o owner) record() []byte {
	raw, _ := json.Marshal(o) // strings and an int: cannot fail
	return wal.Frame(recOwner, raw)
}

// Registry tracks which tenant ingested which dataset and the byte charge.
// All methods are safe for concurrent use.
type Registry struct {
	live func(datasetID string) bool // does the store hold the dataset?
	log  *slog.Logger

	mu     sync.Mutex
	wal    *wal.Log
	owners map[string]map[string]int64 // dataset ID → tenant → bytes
}

// Open replays dir/tenants.log, imports an older version's tenants.json once,
// and releases every owner of a dataset the store no longer holds. Damaged
// records are skipped with a logged reason. If the log cannot be opened,
// every Attribute fails. live is called under the registry's lock, so it
// must not call into the registry.
func Open(dir string, live func(datasetID string) bool, log *slog.Logger) *Registry {
	r := &Registry{live: live, log: log, owners: make(map[string]map[string]int64)}
	var err error
	r.wal, err = wal.Open(filepath.Join(dir, "tenants.log"), r.apply, func(off int64, err error) {
		log.Warn("skipped tenant record", "offset", off, "err", err)
	})
	if err != nil {
		log.Warn("tenant attribution log unavailable: uploads fail", "err", err)
		return r
	}
	r.wal.Live = int64(len(r.recordsLocked()))
	r.importLegacy(filepath.Join(dir, "tenants.json"))
	released := 0
	for id := range r.owners {
		if !live(id) {
			r.DropDataset(id)
			released++
		}
	}
	if released > 0 {
		log.Info("released tenant charges for datasets the store no longer holds", "count", released)
	}
	r.compact()
	return r
}

// importLegacy charges the owners of an older version's whole-map file at
// path, one durable Attribute each, and then removes the file.
func (r *Registry) importLegacy(path string) {
	var legacy struct {
		Schema string                      `json:"schema"`
		Owners map[string]map[string]int64 `json:"owners"`
	}
	data, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(data, &legacy) != nil || legacy.Schema != "sccg-tenants/1" {
		return // none, or not ours: an operator's file of that name stays
	}
	for id, m := range legacy.Owners {
		for name, bytes := range m {
			if err := r.Attribute(name, id, bytes); err != nil {
				r.log.Warn("import tenants.json", "err", err)
				return
			}
		}
	}
	if err := os.Remove(path); err != nil {
		// Harmless: the next boot imports the same charges again.
		r.log.Warn("remove imported tenants.json", "err", err)
	}
	r.log.Info("imported the tenants.json of an older version into tenants.log", "datasets", len(legacy.Owners))
}

// apply folds one replayed record into owners.
func (r *Registry) apply(kind byte, payload []byte, _ int64) error {
	switch kind {
	case recOwner:
		var o owner
		if err := json.Unmarshal(payload, &o); err != nil {
			return err
		}
		if o.Dataset == "" || !ValidName(o.Tenant) || o.Bytes < 0 {
			return fmt.Errorf("invalid owner record %+v", o)
		}
		r.setLocked(o)
	case recRelease:
		delete(r.owners, string(payload))
	default:
		return fmt.Errorf("unknown record kind %q", kind)
	}
	return nil
}

func (r *Registry) setLocked(o owner) {
	if r.owners[o.Dataset] == nil {
		r.owners[o.Dataset] = make(map[string]int64)
	}
	r.owners[o.Dataset][o.Tenant] = o.Bytes
}

// loggedLocked is the framed size of the record holding name's charge for
// id, 0 when there is none.
func (r *Registry) loggedLocked(id, name string) int64 {
	if b, ok := r.owners[id][name]; ok {
		return int64(len(owner{id, name, b}.record()))
	}
	return 0
}

// Attribute charges the dataset's bytes to the tenant and returns once the
// charge is durable. Re-attributing updates the charge (re-ingest is
// idempotent, so the charge must be too) and logs it again, so a retry after
// a failed fsync makes it durable. A dataset the store no longer holds is
// charged to no one: the check runs under the lock DropDataset takes, so an
// ingest racing a delete either sees the dataset gone or lands before its
// release.
func (r *Registry) Attribute(tenantName, datasetID string, bytes int64) error {
	r.mu.Lock()
	if !r.live(datasetID) {
		r.mu.Unlock()
		return nil
	}
	o := owner{datasetID, tenantName, bytes}
	rec := o.record()
	b, err := r.wal.Append(rec)
	if err == nil {
		r.wal.Live += int64(len(rec)) - r.loggedLocked(datasetID, tenantName)
		r.setLocked(o)
	}
	r.mu.Unlock()
	if err == nil {
		_, err = r.wal.Commit(b, r.compact)
	}
	return err
}

// DropDataset releases every tenant's charge for the dataset — wired into
// the store's delete hook so eviction, DELETE /datasets, and GC all release
// quota in the same stroke. The next commit carries its record.
func (r *Registry) DropDataset(datasetID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.owners[datasetID] {
		r.wal.Live -= r.loggedLocked(datasetID, name)
	}
	delete(r.owners, datasetID)
	if _, err := r.wal.Append(wal.Frame(recRelease, []byte(datasetID))); err != nil {
		r.log.Warn("record tenant release", "dataset", datasetID, "err", err)
	}
}

// compact rewrites the log to the owner records once it is due.
func (r *Registry) compact() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wal.CompactDue() {
		return
	}
	if err := r.wal.Rewrite(r.recordsLocked()); err != nil {
		r.log.Warn("compact tenants log", "err", err)
	}
}

// recordsLocked frames every current charge.
func (r *Registry) recordsLocked() (recs []byte) {
	for id, m := range r.owners {
		for name, b := range m {
			recs = append(recs, owner{id, name, b}.record()...)
		}
	}
	return recs
}

// Usage returns the tenant's accounted footprint.
func (r *Registry) Usage(tenantName string) Usage { return r.All()[tenantName] }

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
