// Package retention bounds the persistent footprint of a long-lived sccgd:
// a policy engine over the content-addressed dataset store. Without it the
// store is a disk leak — every upload stays until someone deletes it.
//
// The policy is usage-driven, LogBase-style compaction for an append-only
// segment store: every job, cross comparison, matrix cell, and tile read
// advances the dataset's last-use clock (persisted in the manifest, so
// recency ordering survives restarts), datasets referenced by queued or
// running jobs are pinned via store refcounts and never evicted, and a sweep
// removes what the two configurable bounds reject — datasets unused longer
// than TTL, then least-recently-used datasets until total segment bytes fit
// MaxBytes. Evictions go through Store.Delete, exactly like an explicit
// delete, so the store's delete hook runs for each one.
//
// An Engine runs one Sweep on demand (the server's POST /gc) or
// periodically in the background (Start/Close, owned by the server
// lifecycle).
package retention

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
)

// Policy is the retention configuration. The zero value bounds nothing: no
// dataset is ever evicted.
type Policy struct {
	// MaxBytes caps the store's total segment bytes; above it the sweep
	// evicts least-recently-used unpinned datasets until the total fits.
	// 0 means unbounded.
	MaxBytes int64
	// TTL evicts datasets whose last use is older than this, regardless of
	// the byte budget. 0 disables TTL eviction.
	TTL time.Duration
	// SweepInterval is the background sweep period; 0 selects the default of
	// one minute. The background sweeper only runs when Active.
	SweepInterval time.Duration
}

// Active reports whether the policy bounds anything — whether a background
// sweeper is worth running.
func (p Policy) Active() bool { return p.MaxBytes > 0 || p.TTL > 0 }

// String renders the policy for boot logs.
func (p Policy) String() string {
	if !p.Active() {
		return "unbounded"
	}
	var parts []string
	if p.MaxBytes > 0 {
		parts = append(parts, "store<="+FormatBytes(p.MaxBytes))
	}
	if p.TTL > 0 {
		parts = append(parts, "ttl="+p.TTL.String())
	}
	return strings.Join(parts, " ")
}

// Config wires an Engine.
type Config struct {
	// Store is the dataset store to bound. Required.
	Store *store.Store
	// Policy is the retention policy; the zero value makes Sweep a no-op
	// reporter.
	Policy Policy
	// Registry, when set, receives the engine's counters and gauges.
	Registry *metrics.Registry
	// Log, when set, receives one line per eviction decision worth noting.
	Log func(format string, args ...any)
}

// Sweep is one pass's outcome.
type Sweep struct {
	// TTLEvicted counts datasets evicted because their last use exceeded TTL.
	TTLEvicted int `json:"ttl_evicted"`
	// BudgetEvicted counts datasets evicted to fit the byte budget.
	BudgetEvicted int `json:"budget_evicted"`
	// EvictedBytes is the total segment bytes reclaimed.
	EvictedBytes int64 `json:"evicted_bytes"`
	// PinnedSkipped counts datasets the policy wanted gone but pins kept.
	PinnedSkipped int `json:"pinned_skipped"`
	// Datasets and StoreBytes describe the store after the sweep.
	Datasets   int   `json:"datasets"`
	StoreBytes int64 `json:"store_bytes"`
}

// Engine applies a Policy to a store, on demand via Sweep or periodically via
// Start.
type Engine struct {
	cfg Config

	sweeps       *metrics.Counter
	evicted      *metrics.Counter
	evictedBytes *metrics.Counter

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// New creates an engine. It registers retention gauges (store bytes, pinned
// datasets) and eviction counters on cfg.Registry when one is set; the
// background sweeper does not run until Start.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, stop: make(chan struct{})}
	if cfg.Registry != nil {
		e.sweeps = cfg.Registry.Counter("sccgd_retention_sweeps_total")
		e.evicted = cfg.Registry.Counter("sccgd_retention_datasets_evicted_total")
		e.evictedBytes = cfg.Registry.Counter("sccgd_retention_bytes_evicted_total")
		cfg.Registry.OnScrape(func(em *metrics.Emitter) {
			em.Gauge("sccgd_store_bytes", float64(cfg.Store.TotalBytes()))
			em.Gauge("sccgd_store_pinned_datasets", float64(cfg.Store.PinnedCount()))
		})
	}
	return e
}

// Policy returns the engine's policy.
func (e *Engine) Policy() Policy { return e.cfg.Policy }

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Log != nil {
		e.cfg.Log(format, args...)
	}
}

// Sweep runs one retention pass and reports what it evicted.
//
// Candidates are considered least-recently-used first. Because TTL expiry is
// monotone in last-use, the expired datasets form a prefix of that order, so
// one pass applies both bounds: a dataset is evicted when its last use
// exceeds TTL or while the store is still over the byte budget; the pass
// stops at the first dataset neither bound rejects. Pinned datasets are
// skipped (and counted) — a job's data can never be swept out from under it.
func (e *Engine) Sweep() Sweep { return e.SweepFor(0) }

// SweepFor is Sweep with reserved headroom: the byte budget is treated as
// MaxBytes-headroom, so admission control can synchronously evict enough
// least-recently-used unpinned datasets to fit an incoming dataset of
// `headroom` bytes before any of it touches disk, instead of an ingest
// overshooting the budget until the next background sweep.
func (e *Engine) SweepFor(headroom int64) Sweep {
	if e.sweeps != nil {
		e.sweeps.Inc()
	}
	pol := e.cfg.Policy
	if headroom > 0 && pol.MaxBytes > 0 {
		if headroom >= pol.MaxBytes {
			pol.MaxBytes = 1 // evict everything evictable
		} else {
			pol.MaxBytes -= headroom
		}
	}
	now := time.Now()
	var sw Sweep
	mans := e.cfg.Store.List()
	sort.Slice(mans, func(i, j int) bool {
		ti, tj := mans[i].LastUse(), mans[j].LastUse()
		if !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return mans[i].ID < mans[j].ID
	})
	total := int64(0)
	for _, m := range mans {
		total += m.SegmentBytes
	}

	for _, m := range mans {
		expired := pol.TTL > 0 && now.Sub(m.LastUse()) > pol.TTL
		overBudget := pol.MaxBytes > 0 && total > pol.MaxBytes
		if !expired && !overBudget {
			break
		}
		if e.cfg.Store.Pinned(m.ID) {
			sw.PinnedSkipped++
			continue
		}
		err := e.cfg.Store.Delete(m.ID)
		switch {
		case errors.Is(err, store.ErrPinned):
			// Pinned between the check and the delete: the job wins.
			sw.PinnedSkipped++
			continue
		case errors.Is(err, store.ErrNotFound):
			// Deleted concurrently; its bytes are gone either way.
			total -= m.SegmentBytes
			continue
		case err != nil:
			e.logf("retention: evict dataset %s: %v", m.ID, err)
			continue
		}
		if expired {
			sw.TTLEvicted++
		} else {
			sw.BudgetEvicted++
		}
		sw.EvictedBytes += m.SegmentBytes
		total -= m.SegmentBytes
		e.logf("retention: evicted dataset %s (%s, %s, last used %s)",
			m.ID[:12], m.DisplayName(), FormatBytes(m.SegmentBytes), m.LastUse().Format(time.RFC3339))
	}
	if n := sw.TTLEvicted + sw.BudgetEvicted; n > 0 && e.evicted != nil {
		e.evicted.Add(int64(n))
		e.evictedBytes.Add(sw.EvictedBytes)
	}

	sw.Datasets = e.cfg.Store.Len()
	sw.StoreBytes = e.cfg.Store.TotalBytes()
	return sw
}

// Start launches the background sweeper. It is a no-op when the policy
// bounds nothing. Safe to call once; stop with Close.
func (e *Engine) Start() {
	if !e.cfg.Policy.Active() {
		return
	}
	e.startOnce.Do(func() {
		interval := e.cfg.Policy.SweepInterval
		if interval <= 0 {
			interval = time.Minute
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-e.stop:
					return
				case <-ticker.C:
					e.Sweep()
				}
			}
		}()
	})
}

// Close stops the background sweeper and waits for an in-flight sweep to
// finish. Idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
}

// byteUnits maps size suffixes (upper-cased, no trailing "B") to their
// multipliers. Decimal (KB, MB, ...) and binary (KIB, MIB, ...) forms are
// both accepted.
var byteUnits = map[string]int64{
	"":   1,
	"K":  1e3,
	"M":  1e6,
	"G":  1e9,
	"T":  1e12,
	"KI": 1 << 10,
	"MI": 1 << 20,
	"GI": 1 << 30,
	"TI": 1 << 40,
}

// ParseBytes parses a human-readable byte size for the -store-max-bytes
// flag: a non-negative decimal number with an optional B/KB/MB/GB/TB
// (decimal) or KiB/MiB/GiB/TiB (binary) suffix, case-insensitive, optional
// space before the unit. "512MiB", "1.5 GB", and "1073741824" all parse.
func ParseBytes(s string) (int64, error) {
	in := strings.TrimSpace(s)
	if in == "" {
		return 0, errors.New("retention: empty byte size")
	}
	num := strings.ToUpper(in)
	cut := len(num)
	for cut > 0 {
		c := num[cut-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		cut--
	}
	unit := strings.TrimSpace(num[cut:])
	unit = strings.TrimSuffix(unit, "B")
	mult, ok := byteUnits[unit]
	if !ok {
		return 0, fmt.Errorf("retention: unknown byte unit %q in %q", num[cut:], s)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(num[:cut]), 64)
	if err != nil {
		return 0, fmt.Errorf("retention: byte size %q: %v", s, err)
	}
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("retention: byte size %q must be a non-negative finite number", s)
	}
	f := v * float64(mult)
	// Strictly below 2^63: float rounding at the boundary must not wrap.
	if f >= math.MaxInt64 {
		return 0, fmt.Errorf("retention: byte size %q overflows", s)
	}
	return int64(f), nil
}

// FormatBytes renders n in binary units for logs and policy strings.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.1fTiB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
