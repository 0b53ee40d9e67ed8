package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark reads back.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadDeclared() (*benchmarkJSON, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// series groups runs' values: workload -> metric -> one value per run.
type series map[string]map[string][]float64

func collect(runs []*runResult) series {
	out := series{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printSummary prints, per workload and metric, the median over the runs and
// their spread: the interquartile distance as a share of the median.
func printSummary(runs []*runResult) {
	all := collect(runs)
	fmt.Printf("%-14s %-34s %4s %16s %16s %16s %8s\n", "# workload", "metric", "runs", "median", "q1", "q3", "spread")
	for _, w := range sortedKeys(all) {
		for _, name := range sortedKeys(all[w]) {
			v := all[w][name]
			q1, q3 := v[0], v[0]
			if len(v) > 1 {
				q1, q3 = quartiles(v)
			}
			fmt.Printf("%-14s %-34s %4d %16.4f %16.4f %16.4f %7.1f%%\n", w, name, len(v), median(v), q1, q3, spread(v)*100)
		}
	}
}

// verdict compares one metric's runs before (a) and after (b): how much worse
// the median got as a share of a's, and whether that is within the bound.
func verdict(d declared, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return worse, "regressed"
	}
	// A spread wider than the bound cannot show that nothing moved — unless
	// every run of b reads better than every run of a.
	if spread(a) > d.Bound || spread(b) > d.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if d.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return worse, "unresolved"
		}
	}
	return worse, "ok"
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload and end-to-end metric with both
// medians, the change, the bound and a verdict. It exits 1 when any row is
// not ok.
func compareFiles(pathA, pathB string) int {
	decl, err := loadDeclared()
	var fa, fb *resultFile
	if err == nil {
		fa, err = readResults(pathA)
	}
	if err == nil {
		fb, err = readResults(pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	a, b := collect(fa.Runs), collect(fb.Runs)
	code := 0
	fmt.Printf("%-14s %-18s %14s %14s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound", "verdict")
	for _, w := range sortedKeys(a) {
		for _, d := range decl.EndToEnd {
			va, vb := a[w][d.Name], b[w][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-18s missing from one file\n", w, d.Name)
				code = 1
				continue
			}
			worse, v := verdict(d, va, vb)
			if v != "ok" {
				code = 1
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w, d.Name, median(va), median(vb), worse*100, spread(va)*100, spread(vb)*100, d.Bound*100, v)
		}
	}
	return code
}
