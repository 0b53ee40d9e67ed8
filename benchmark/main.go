// Command benchmark measures sccgd end to end and layer by layer. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run -C benchmark . -workload cold_single -seed 1 -seconds 10 -trace 0
//	go run -C benchmark . -repeats 10 -out out/a.json   # every workload, ten seeds
//	go run -C benchmark . -trace 1                      # the per-layer run
//	go run -C benchmark . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: every workload in turn)")
		seed         = flag.Int64("seed", 1, "corpus seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 15, "measured seconds per run")
		traced       = flag.Int("trace", 0, "1: run the in-process layer suite and report the per-layer metrics")
		repeats      = flag.Int("repeats", 1, "runs per workload, on seeds seed, seed+1, ...")
		reverse      = flag.Bool("reverse", false, "run the workloads in the opposite order")
		out          = flag.String("out", "", "result file (default benchmark/out/result.json)")
		cmp          = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	todo := append([]workload(nil), workloads...)
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		todo = []workload{w}
	}
	if *reverse {
		for i, j := 0, len(todo)-1; i < j; i, j = i+1, j-1 {
			todo[i], todo[j] = todo[j], todo[i]
		}
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Children and scratch directories go on every exit path: return, panic
	// (the deferred close runs while the panic unwinds), and signal.
	defer h.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()

	file := resultFile{Go: runtime.Version(), NProc: runtime.NumCPU(), Trace: *traced}
	code := 0
	for r := 0; r < *repeats; r++ {
		for _, w := range todo {
			var res *runResult
			start := time.Now()
			if *traced == 1 {
				res, err = runLayers(h, w.name, *seed+int64(r), *seconds)
			} else {
				res, err = runWorkload(h, w, *seed+int64(r), *seconds)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d failed, %.1fs\n",
				w.name, res.Seed, res.Failed, res.Attempted, time.Since(start).Seconds())
			file.Runs = append(file.Runs, res)
			if res.Failed > 0 {
				code = 1
			}
		}
	}

	if *out == "" {
		*out = filepath.Join(h.root, "benchmark", "out", "result.json")
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(*out, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if len(file.Runs) > 1 {
		printSummary(file.Runs)
	}
	// The last run's result is the last line, for a driver that reads one.
	printResult(file.Runs[len(file.Runs)-1])
	return code
}

// resultFile is what a benchmark invocation leaves in out/: every run it
// made, in order.
type resultFile struct {
	Go    string       `json:"go"`
	NProc int          `json:"nproc"`
	Trace int          `json:"trace"`
	Runs  []*runResult `json:"runs"`
}

// printResult prints one run: every metric by name with its unit and the
// number of samples behind it, then the one-line JSON result.
func printResult(res *runResult) {
	fmt.Printf("# %s seed=%d seconds=%g attempted=%d failed=%d\n", res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Printf("#   failure: %s\n", e)
	}
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Printf("%-34s %16.4f %-6s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		if c, ok := res.Samples[n]; ok {
			fmt.Printf(" n=%d", c)
		}
		fmt.Println()
	}
	for _, n := range sortedKeys(res.Detail) {
		fmt.Printf("  %-32s %16.4f %-6s\n", n, res.Detail[n].Value, res.Detail[n].Unit)
	}
	line, _ := json.Marshal(map[string]any{ // plain numbers and strings cannot fail
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	fmt.Println(string(line))
}
