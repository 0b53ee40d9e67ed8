package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// contentIDs ingests the pool into a scratch store and returns its IDs.
func contentIDs(t *testing.T, c *corpus) []string {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, ds := range c.pool {
		man, err := st.Ingest(ds.name, ds.ingestTiles())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, man.ID)
	}
	return ids
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	a, again, other := contentIDs(t, newCorpus(1)), contentIDs(t, newCorpus(1)), contentIDs(t, newCorpus(2))
	seen := map[string]bool{}
	for i := range a {
		if a[i] != again[i] {
			t.Errorf("v%d: seed 1 gave %s and then %s", i, a[i], again[i])
		}
		if a[i] == other[i] {
			t.Errorf("v%d: seeds 1 and 2 gave the same content %s", i, a[i])
		}
		if seen[a[i]] {
			t.Errorf("v%d repeats another variant's content %s", i, a[i])
		}
		seen[a[i]] = true
	}
}

// Every filler is a distinct dataset to the store and the same job to the
// pipeline: that is what lets one oracle value check all of them.
func TestFillersShareOneOracleValue(t *testing.T) {
	c := newCorpus(1)
	want, err := oracle(c.base, c.base)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]int{}
	for _, k := range []int{0, 1, 17, 4095} {
		f := c.filler(k)
		got, err := oracle(f, f)
		if err != nil {
			t.Fatal(err)
		}
		if !got.equal(want) {
			t.Errorf("filler %d: %+v, base: %+v", k, got, want)
		}
		man, err := st.Ingest(f.name, f.ingestTiles())
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := ids[man.ID]; dup {
			t.Errorf("fillers %d and %d share content ID %s", prev, k, man.ID)
		}
		ids[man.ID] = k
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // ten beyond
		{99, 0.90, 90, false}, // nine beyond
		{20, 0.50, 10, true},  // ten beyond the median
		{19, 0.50, 10, false}, // nine
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p%.0f of %d samples = %v, %v; want %v, %v", tc.p*100, tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(values, n=4); quartiles must agree with it.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := declared{Name: "job_p50_ms", Better: "lower", Bound: 0.10}
	higher := declared{Name: "pairs_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 100, 130, 60, 100, 150, 80, 100}
	for _, tc := range []struct {
		name string
		d    declared
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"5% slower", lower, steady, scale(steady, 1.05), "ok"},
		{"20% slower", lower, steady, scale(steady, 1.20), "regressed"},
		{"20% faster", lower, steady, scale(steady, 0.80), "ok"},
		{"20% less throughput", higher, steady, scale(steady, 0.80), "regressed"},
		{"20% more throughput", higher, steady, scale(steady, 1.20), "ok"},
		{"spread wider than the bound", lower, noisy, noisy, "unresolved"},
		{"noisy but every run better", lower, noisy, scale(noisy, 0.3), "ok"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// testHarness builds sccgd once per test binary run; the harness is closed
// when the test ends.
func testHarness(t *testing.T) *harness {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns sccgd")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.close)
	return h
}

func names(ds []declared) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// A one-second miniature of every workload: no operation fails, and the run
// prints exactly the end-to-end metrics BENCHMARK.json declares, none of
// them zero.
func TestWorkloadsPrintWhatBenchmarkJSONDeclares(t *testing.T) {
	h := testHarness(t)
	decl, err := loadDeclared()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(decl.Workloads); got != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", got, len(workloads))
	}
	want := strings.Join(names(decl.EndToEnd), " ")
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json and %s in the benchmark", i, decl.Workloads[i].Name, w.name)
		}
		w.setups = 1
		seconds := 1.0
		if w.name == "matrix_qos" {
			seconds = 3 // one matrix takes two: the window must see one start
		}
		res, err := runWorkload(h, w, 1, seconds)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		if got := strings.Join(sortedKeys(res.Metrics), " "); got != want {
			t.Errorf("%s prints\n  %s\nBENCHMARK.json declares\n  %s", w.name, got, want)
		}
		for _, d := range decl.EndToEnd {
			m := res.Metrics[d.Name]
			if m.Unit != d.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v %s, want a positive number of %s", w.name, d.Name, m.Value, m.Unit, d.Unit)
			}
		}
		for name := range res.Detail {
			if strings.HasSuffix(name, "_p99_ms") && res.Detail[strings.TrimSuffix(name, "_p99_ms")+"_samples"].Value < 1000 {
				t.Errorf("%s: %s printed from fewer than 1000 samples", w.name, name)
			}
		}
	}
}

// A wrong oracle value must fail the run: every answer is checked.
func TestWrongOracleFailsTheRun(t *testing.T) {
	h := testHarness(t)
	w, _ := findWorkload("cold_single")
	w.setups = 1
	in, err := prepare(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The traffic is checked against answers one bit off.
	setup := w.setup
	w.setup = func(e *env, seconds float64) error {
		if err := setup(e, seconds); err != nil {
			return err
		}
		for p, a := range e.want {
			a.similarity = math.Float64frombits(math.Float64bits(a.similarity) ^ 1)
			e.want[p] = a
		}
		return nil
	}
	res, err := drive(h, w, in, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Attempted || res.Attempted == 0 {
		t.Errorf("%d of %d answers failed against an oracle one bit off; want all", res.Failed, res.Attempted)
	}
}

// The traced run prints exactly the per-layer metrics BENCHMARK.json declares.
func TestLayerSuitePrintsWhatBenchmarkJSONDeclares(t *testing.T) {
	h := testHarness(t)
	decl, err := loadDeclared()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLayers(h, "layers", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, got := strings.Join(names(decl.PerLayer), "\n"), strings.Join(sortedKeys(res.Metrics), "\n")
	if got != want {
		t.Errorf("the suite prints\n%s\nBENCHMARK.json declares\n%s", got, want)
	}
	for _, d := range decl.PerLayer {
		if res.Metrics[d.Name].Unit != d.Unit {
			t.Errorf("%s is in %s, declared in %s", d.Name, res.Metrics[d.Name].Unit, d.Unit)
		}
	}
	// trace.json holds every rung of the ladder, children under their rung.
	raw, err := os.ReadFile(filepath.Join(h.root, "benchmark", "out", "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	rungs := map[string]int{}
	byID := map[int]span{}
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
		if strings.HasPrefix(sp.Name, "ladder.") {
			rungs[sp.Name]++
		}
		if sp.EndUS < sp.StartUS {
			t.Errorf("span %d %s ends before it starts", sp.ID, sp.Name)
		}
	}
	for _, rung := range []string{"ladder.http", "ladder.handler", "ladder.sched", "ladder.pipeline", "ladder.kernels"} {
		if rungs[rung] != rungs["ladder.http"] || rungs[rung] == 0 {
			t.Errorf("%d spans of %s, %d of ladder.http", rungs[rung], rung, rungs["ladder.http"])
		}
	}
	for _, sp := range tr.Spans {
		if sp.Name == "store.read_tile" && byID[sp.Parent].Name != "ladder.pipeline" {
			t.Errorf("span %d store.read_tile hangs under %q, want ladder.pipeline", sp.ID, byID[sp.Parent].Name)
		}
		// Stored jobs skip the parser: no parser span belongs to a ladder request.
		if sp.Layer == "parser" && sp.Parent != 0 {
			t.Errorf("parser span %d inside %s", sp.ID, byID[sp.Parent].Name)
		}
	}
}

func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

// close must reap children and scratch on every path, a client panic included.
func TestHarnessReapsChildren(t *testing.T) {
	h := testHarness(t)
	w, _ := findWorkload("cold_single")
	w.setups = 1
	var pid int
	w.clients = func(e *env) []func(int) bool {
		pid = e.nodes[0].cmd.Process.Pid
		return []func(int) bool{func(int) bool { panic("client bug") }}
	}
	if _, err := runWorkload(h, w, 1, 1); err == nil || !strings.Contains(err.Error(), "client bug") {
		t.Fatalf("a panicking client gave %v, want its panic as an error", err)
	}
	if alive(pid) {
		t.Errorf("sccgd %d survived a client panic", pid)
	}

	dir, err := h.dataDir("leak")
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := freeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.start("leak", addrs[0], dir, "-devices", "0")
	if err != nil {
		t.Fatal(err)
	}
	h.close()
	for i := 0; alive(d.cmd.Process.Pid) && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if alive(d.cmd.Process.Pid) {
		t.Errorf("sccgd %d survived close", d.cmd.Process.Pid)
	}
	if _, err := os.Stat(h.tmp); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survived close", h.tmp)
	}
	if _, err := h.start("late", addrs[0], dir, "-devices", "0"); err == nil {
		t.Error("a closed harness started another daemon")
	}
}
