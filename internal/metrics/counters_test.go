package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if r.Counter("hits") != c {
		t.Error("Counter(name) is not idempotent")
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(3)
	r.Gauge("a_value").Set(1.5)
	r.OnScrape(func(e *Emitter) { e.Gauge("c_live", 42) })

	snap := r.Snapshot()
	if snap["b_total"] != 3 || snap["a_value"] != 1.5 || snap["c_live"] != 42 {
		t.Errorf("snapshot = %v", snap)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a_value gauge\n" +
		"a_value 1.5\n" +
		"# TYPE b_total counter\n" +
		"b_total 3\n" +
		"# TYPE c_live gauge\n" +
		"c_live 42\n"
	if b.String() != want {
		t.Errorf("WriteText = %q, want %q (sorted families, TYPE lines, integers unpadded)", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Label("m_total", "path", `a\b"c`+"\n")
	want := `m_total{path="a\\b\"c\n"}`
	if got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
	// UTF-8 passes through raw — Go's %q would have escaped it.
	got = Label("m_total", "name", "café")
	want = `m_total{name="café"}`
	if got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
	if Label("bare") != "bare" {
		t.Errorf("Label with no pairs should return the bare name")
	}
}

func TestSpliceSuffix(t *testing.T) {
	cases := []struct{ name, suffix, want string }{
		{"d_seconds", "_sum", "d_seconds_sum"},
		{`d_seconds{route="/x"}`, "_sum", `d_seconds_sum{route="/x"}`},
	}
	for _, c := range cases {
		if got := spliceSuffix(c.name, c.suffix); got != c.want {
			t.Errorf("spliceSuffix(%q, %q) = %q, want %q", c.name, c.suffix, got, c.want)
		}
	}
	got := spliceSuffix(`d_seconds{route="/x"}`, "_bucket", "le", "0.1")
	want := `d_seconds_bucket{route="/x",le="0.1"}`
	if got != want {
		t.Errorf("spliceSuffix bucket = %q, want %q", got, want)
	}
	got = spliceSuffix("d_seconds", "_bucket", "le", "+Inf")
	want = `d_seconds_bucket{le="+Inf"}`
	if got != want {
		t.Errorf("spliceSuffix bare bucket = %q, want %q", got, want)
	}
}

// TestHistogramHammer drives a histogram from many goroutines with a known
// mix of values and asserts exact bucket counts, count, and sum afterwards.
// Run under -race in CI, this doubles as the lock-freedom proof.
func TestHistogramHammer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", 0.001, 0.01, 0.1, 1)
	if r.Histogram("lat_seconds") != h {
		t.Fatal("Histogram(name) is not idempotent")
	}

	const goroutines = 8
	const perG = 5000
	// Each goroutine observes the same 5-value cycle, one value per bucket
	// including +Inf, so expected per-bucket counts are exact.
	values := []float64{0.0005, 0.005, 0.05, 0.5, 5}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(values[j%len(values)])
			}
		}()
	}
	wg.Wait()

	wantPer := int64(goroutines * perG / len(values))
	counts := h.BucketCounts()
	if len(counts) != 5 {
		t.Fatalf("bucket count slots = %d, want 5", len(counts))
	}
	for i, c := range counts {
		if c != wantPer {
			t.Errorf("bucket[%d] = %d, want %d", i, c, wantPer)
		}
	}
	if got := h.Count(); got != int64(goroutines*perG) {
		t.Errorf("count = %d, want %d", got, goroutines*perG)
	}
	wantSum := 0.0
	for _, v := range values {
		wantSum += v * float64(wantPer)
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Errorf("sum = %g, want %g", got, wantSum)
	}
}

// TestHistogramExposition checks the rendered cumulative bucket series, the
// le="+Inf" terminal bucket, and that labelled histogram series splice the
// le label after the existing labels.
func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Label("req_seconds", "route", "/jobs"), 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE req_seconds histogram\n" +
		`req_seconds_bucket{route="/jobs",le="0.1"} 1` + "\n" +
		`req_seconds_bucket{route="/jobs",le="1"} 2` + "\n" +
		`req_seconds_bucket{route="/jobs",le="+Inf"} 3` + "\n" +
		`req_seconds_sum{route="/jobs"} 2.55` + "\n" +
		`req_seconds_count{route="/jobs"} 3` + "\n"
	if b.String() != want {
		t.Errorf("WriteText = %q, want %q", b.String(), want)
	}

	snap := r.Snapshot()
	if snap[`req_seconds_sum{route="/jobs"}`] != 2.55 || snap[`req_seconds_count{route="/jobs"}`] != 3 {
		t.Errorf("snapshot missing histogram sum/count: %v", snap)
	}
}

func TestOnScrape(t *testing.T) {
	r := NewRegistry()
	r.OnScrape(func(e *Emitter) {
		e.Gauge("queue_depth", 7)
		e.Counter(Label("launches_total", "device", "0"), 3)
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE launches_total counter\n" +
		`launches_total{device="0"} 3` + "\n" +
		"# TYPE queue_depth gauge\n" +
		"queue_depth 7\n"
	if b.String() != want {
		t.Errorf("WriteText = %q, want %q", b.String(), want)
	}
	if snap := r.Snapshot(); snap["queue_depth"] != 7 {
		t.Errorf("snapshot missing scrape sample: %v", snap)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("bucket[%d] = %g, want %g", i, b[i], want[i])
		}
	}
	if ExpBuckets(0, 2, 3) != nil || ExpBuckets(1, 1, 3) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Error("invalid ExpBuckets args should return nil")
	}
}

// TestHistogramDropsNonFinite: NaN and ±Inf observations must never reach
// the CAS-folded sum (one NaN would make `_sum` NaN for the registry's
// lifetime and break Prometheus scrapers); they land in the Dropped tally
// and surface as a `_dropped_total` self-metric instead.
func TestHistogramDropsNonFinite(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Label("req_seconds", "route", "/matrix"), 0.1, 1)
	h.Observe(0.05)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(0.5)

	if got := h.Count(); got != 2 {
		t.Errorf("count = %d, want 2 (non-finite observations must not count)", got)
	}
	if got := h.Sum(); got != 0.55 {
		t.Errorf("sum = %g, want 0.55 (sum poisoned by a non-finite value)", got)
	}
	if !isFinite(h.Sum()) {
		t.Fatalf("sum is non-finite: %g", h.Sum())
	}
	if got := h.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	var total int64
	for _, c := range h.BucketCounts() {
		total += c
	}
	if total != 2 {
		t.Errorf("bucket total = %d, want 2", total)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	wantLine := `req_seconds_dropped_total{route="/matrix"} 3`
	if !strings.Contains(b.String(), "# TYPE req_seconds_dropped_total counter\n"+wantLine+"\n") {
		t.Errorf("exposition missing dropped self-metric:\n%s", b.String())
	}
	if snap := r.Snapshot(); snap[`req_seconds_dropped_total{route="/matrix"}`] != 3 {
		t.Errorf("snapshot missing dropped self-metric: %v", snap)
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
