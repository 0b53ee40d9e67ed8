// Package metrics is the daemon's metrics registry: counters, gauges and
// histograms keyed by rendered series name, scrape-time emitters (OnScrape),
// and the Prometheus text exposition that GET /metrics serves. The
// paper-figure experiments' stopwatches and tables live in internal/experiments.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label renders a Prometheus-style metric name with label pairs, e.g.
// Label("pairs_total", "executor", "gpu0") = `pairs_total{executor="gpu0"}`.
// Registries key metrics by the full rendered name, so labelled series are
// independent metrics that sort together in the text exposition. Label
// values are escaped per the Prometheus text format: backslash, double
// quote, and newline only — other bytes (including UTF-8) pass through raw,
// unlike Go's %q which would mangle them.
func Label(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// spliceSuffix inserts a suffix (and optional extra label pairs) into a
// possibly-labelled series name: spliceSuffix(`d_seconds{route="/x"}`,
// "_bucket", "le", "0.1") = `d_seconds_bucket{route="/x",le="0.1"}`.
func spliceSuffix(name, suffix string, kv ...string) string {
	base, labels := splitName(name)
	var b strings.Builder
	b.WriteString(base)
	b.WriteString(suffix)
	if labels == "" && len(kv) == 0 {
		return b.String()
	}
	b.WriteByte('{')
	b.WriteString(labels)
	for i := 0; i+1 < len(kv); i += 2 {
		if b.String()[b.Len()-1] != '{' {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates a rendered series name into its family (metric name)
// and the label body between the braces ("" when unlabelled).
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// Counter is a monotonically increasing counter, safe for concurrent use.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { atomic.AddInt64(&c.v, 1) }

// Add adds d (d must be non-negative for the counter to stay monotonic).
func (c *Counter) Add(d int64) { atomic.AddInt64(&c.v, d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Gauge is a settable float64 value, safe for concurrent use.
type Gauge struct {
	bits uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { atomic.StoreUint64(&g.bits, math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(atomic.LoadUint64(&g.bits)) }

// Registry is a named collection of counters, gauges, histograms and
// scrape-time collectors, rendered in the Prometheus text exposition format
// (v0.0.4: `# TYPE` comments, families grouped, series sorted
// deterministically) for scraping endpoints like sccgd's GET /metrics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	scrapers   []func(*Emitter)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket upper bounds (DefBuckets when none are given). The bounds of
// an existing histogram are never changed by later calls, so every labelled
// series of one family should be created with the same bounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// OnScrape registers a collector invoked on every WriteText call. Collectors
// emit point-in-time samples (e.g. scheduler queue depths read under the
// scheduler's own lock) that merge into the same sorted, typed exposition as
// registered metrics.
func (r *Registry) OnScrape(fn func(*Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scrapers = append(r.scrapers, fn)
}

// Emitter collects typed samples from OnScrape collectors during a scrape.
type Emitter struct {
	samples []sample
}

// Counter emits one counter sample under the (possibly labelled) name.
func (e *Emitter) Counter(name string, v float64) {
	e.samples = append(e.samples, sample{name: name, value: v, typ: "counter"})
}

// Gauge emits one gauge sample under the (possibly labelled) name.
func (e *Emitter) Gauge(name string, v float64) {
	e.samples = append(e.samples, sample{name: name, value: v, typ: "gauge"})
}

type sample struct {
	name  string
	value float64
	typ   string
}

// Snapshot returns every scalar metric's current value by name. Histograms
// contribute their `_sum` and `_count` series; scrape collectors contribute
// their samples.
func (r *Registry) Snapshot() map[string]float64 {
	counters, gauges, histograms, scrapers := r.copyRefs()

	// Read values outside the lock: scrape collectors may take other locks.
	snap := make(map[string]float64, len(counters)+len(gauges)+2*len(histograms))
	for n, c := range counters {
		snap[n] = float64(c.Value())
	}
	for n, g := range gauges {
		snap[n] = g.Value()
	}
	for n, h := range histograms {
		snap[spliceSuffix(n, "_sum")] = h.Sum()
		snap[spliceSuffix(n, "_count")] = float64(h.Count())
		if d := h.Dropped(); d > 0 {
			snap[spliceSuffix(n, "_dropped_total")] = float64(d)
		}
	}
	for _, s := range collectScrapes(scrapers) {
		snap[s.name] = s.value
	}
	return snap
}

func (r *Registry) copyRefs() (map[string]*Counter, map[string]*Gauge, map[string]*Histogram, []func(*Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	scrapers := make([]func(*Emitter), len(r.scrapers))
	copy(scrapers, r.scrapers)
	return counters, gauges, histograms, scrapers
}

func collectScrapes(scrapers []func(*Emitter)) []sample {
	var e Emitter
	for _, fn := range scrapers {
		fn(&e)
	}
	return e.samples
}

// family groups every series that shares a metric name (the part before the
// label braces) so the exposition emits one `# TYPE` line per family.
type family struct {
	typ        string
	series     []sample     // scalar series, sorted by name at render
	histograms []histSeries // histogram series, sorted by name at render
}

type histSeries struct {
	name   string
	bounds []float64
	counts []int64 // non-cumulative, +Inf last
	sum    float64
	count  int64
}

// WriteText renders the registry in the Prometheus text exposition format:
// families sorted by name, one `# TYPE` line per family, series within a
// family sorted, histogram buckets cumulative with an explicit `+Inf` le.
func (r *Registry) WriteText(w io.Writer) error {
	counters, gauges, histograms, scrapers := r.copyRefs()

	fams := make(map[string]*family)
	get := func(name, typ string) *family {
		fam, _ := splitName(name)
		f, ok := fams[fam]
		if !ok {
			f = &family{typ: typ}
			fams[fam] = f
		}
		return f
	}
	for n, c := range counters {
		f := get(n, "counter")
		f.series = append(f.series, sample{name: n, value: float64(c.Value())})
	}
	for n, g := range gauges {
		f := get(n, "gauge")
		f.series = append(f.series, sample{name: n, value: g.Value()})
	}
	for n, h := range histograms {
		f := get(n, "histogram")
		f.typ = "histogram"
		f.histograms = append(f.histograms, histSeries{
			name:   n,
			bounds: h.Bounds(),
			counts: h.BucketCounts(),
			sum:    h.Sum(),
			count:  h.Count(),
		})
		// Self-metric: non-finite observations the histogram refused. Only
		// emitted once something was dropped, so healthy registries carry no
		// extra series.
		if d := h.Dropped(); d > 0 {
			name := spliceSuffix(n, "_dropped_total")
			df := get(name, "counter")
			df.series = append(df.series, sample{name: name, value: float64(d)})
		}
	}
	for _, s := range collectScrapes(scrapers) {
		f := get(s.name, s.typ)
		f.series = append(f.series, sample{name: s.name, value: s.value})
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, fam := range names {
		f := fams[fam]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, f.typ); err != nil {
			return err
		}
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].name < f.series[j].name })
		for _, s := range f.series {
			if err := writeSample(w, s.name, s.value); err != nil {
				return err
			}
		}
		sort.Slice(f.histograms, func(i, j int) bool { return f.histograms[i].name < f.histograms[j].name })
		for _, h := range f.histograms {
			cum := int64(0)
			for i, c := range h.counts {
				cum += c
				le := "+Inf"
				if i < len(h.bounds) {
					le = formatSample(h.bounds[i])
				}
				if err := writeSample(w, spliceSuffix(h.name, "_bucket", "le", le), float64(cum)); err != nil {
					return err
				}
			}
			if err := writeSample(w, spliceSuffix(h.name, "_sum"), h.sum); err != nil {
				return err
			}
			if err := writeSample(w, spliceSuffix(h.name, "_count"), float64(h.count)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, name string, v float64) error {
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatSample(v))
	return err
}

// formatSample renders integers unpadded and everything else with %g, matching
// what Prometheus parsers accept and keeping the output stable for tests.
func formatSample(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
