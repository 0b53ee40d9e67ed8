package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run as the benchmark reports it. Metrics holds
// exactly the end-to-end metrics BENCHMARK.json declares; Detail holds the
// figures that exist only on some workloads, with their sample counts.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"` // repetitions behind each metric
	Detail    map[string]metric `json:"detail,omitempty"`
}

// inputs is what a run derives from its seed before anything is timed.
type inputs struct {
	c        *corpus
	want     map[pair]answer
	wantBase answer
}

func prepare(w workload, seed int64) (*inputs, error) {
	in := &inputs{c: newCorpus(seed)}
	var err error
	if in.want, err = in.c.oracles(w.pairs); err != nil {
		return nil, err
	}
	if in.wantBase, err = oracle(in.c.base, in.c.base); err != nil {
		return nil, err
	}
	return in, nil
}

// runWorkload is one end-to-end run of w on the inputs of seed.
func runWorkload(h *harness, w workload, seed int64, seconds float64) (*runResult, error) {
	in, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	return drive(h, w, in, seed, seconds)
}

// drive runs w against in: set-up (timed, w.setups times over — setup_s is
// the median, and the last system set up takes the traffic), warm-up
// (discarded), measured traffic, teardown, metrics.
func drive(h *harness, w workload, in *inputs, seed int64, seconds float64) (*runResult, error) {
	var (
		e      *env
		setups []float64
	)
	for r := 0; r < w.setups; r++ {
		if e != nil {
			if err := e.teardown(); err != nil {
				return nil, err
			}
		}
		e = &env{h: h, c: in.c, want: in.want, wantBase: in.wantBase, streams: make([]stream, len(w.streams))}
		start := time.Now()
		if err := w.setup(e, seconds); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	warmEnd := time.Now().Add(warmup(seconds))
	deadline := warmEnd.Add(time.Duration(seconds * float64(time.Second)))
	// The daemons' CPU time is read as the warm-up ends and again as the
	// traffic ends, so that it covers the window the pairs are counted in.
	cpuAtWarmEnd := make(chan float64, 1)
	go func() {
		time.Sleep(time.Until(warmEnd))
		cpuAtWarmEnd <- e.cpuSeconds()
	}()
	clients := w.clients(e)
	var wg sync.WaitGroup
	panicked := make(chan any, len(clients)) // room for every client's last word
	for _, iter := range clients {
		wg.Add(1)
		go func(iter func(int) bool) {
			defer wg.Done()
			// A bug in a client must not skip the teardown below.
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
				}
			}()
			for i := 0; time.Now().Before(deadline) && iter(i); i++ {
			}
		}(iter)
	}
	wg.Wait()
	spent := cost{cpuSeconds: e.cpuSeconds() - <-cpuAtWarmEnd}
	for _, d := range e.nodes {
		spent.rssPeakMB += d.rssPeakMB()
	}
	if err := e.teardown(); err != nil {
		return nil, err
	}
	select {
	case p := <-panicked:
		return nil, fmt.Errorf("%s: client panicked: %v", w.name, p)
	default:
	}
	return summarize(w, e, seed, seconds, setups, warmEnd, spent), nil
}

// cost is what the measured system's daemons consumed: CPU over the measured
// window, memory at its peak.
type cost struct {
	cpuSeconds float64
	rssPeakMB  float64
}

// cpuSeconds sums the CPU time of the system's daemons so far.
func (e *env) cpuSeconds() float64 {
	var sum float64
	for _, d := range e.nodes {
		sum += d.cpuSeconds()
	}
	return sum
}

// teardown stops the system's daemons and removes their data.
func (e *env) teardown() error {
	for _, d := range e.nodes {
		if err := d.stop(); err != nil {
			return err
		}
		if err := os.RemoveAll(d.dir); err != nil {
			return err
		}
	}
	return nil
}

// window is the measured part of a stream: the operations that started
// after the warm-up.
type window struct {
	latencies []float64 // ms, of the operations that succeeded; sorted
	attempted int
	failed    int
	pairs     int
	first     time.Time // start of the first measured operation
	last      time.Time // end of the last one
}

func (s *stream) window(from time.Time) window {
	var w window
	for _, smp := range s.samples {
		if smp.start.Before(from) {
			continue
		}
		if w.attempted == 0 || smp.start.Before(w.first) {
			w.first = smp.start
		}
		if smp.end.After(w.last) {
			w.last = smp.end
		}
		w.attempted++
		if smp.failed {
			w.failed++
			continue
		}
		w.pairs += smp.pairs
		w.latencies = append(w.latencies, float64(smp.end.Sub(smp.start).Nanoseconds())/1e6)
	}
	w.latencies = sortedCopy(w.latencies)
	return w
}

// per returns n per second of the window's own span, first start to last
// end. A closed-loop stream's operations are back to back, so its span holds
// exactly the operations counted: no operation is cut by the window's edge,
// which matters when a run holds five matrices.
func (w window) per(n float64) float64 {
	if span := w.last.Sub(w.first).Seconds(); span > 0 {
		return n / span
	}
	return 0
}

// tailPercentile is the tail every workload can support: with at least 40
// job samples in a run, ten lie beyond p75.
const tailPercentile = 0.75

func summarize(w workload, e *env, seed int64, seconds float64, setups []float64, warmEnd time.Time, spent cost) *runResult {
	res := &runResult{
		Workload: w.name,
		Seed:     seed,
		Seconds:  seconds,
		Metrics:  map[string]metric{},
		Samples:  map[string]int{},
		Detail:   map[string]metric{},
	}
	var pairs, pairsPerS float64
	windows := make([]window, len(e.streams))
	for i := range e.streams {
		win := e.streams[i].window(warmEnd)
		windows[i] = win
		res.Attempted += win.attempted
		res.Failed += win.failed
		res.Errors = append(res.Errors, e.streams[i].errs...)
		pairs += float64(win.pairs)
		pairsPerS += win.per(float64(win.pairs))

		as := w.streams[i]
		res.Detail[as+"_samples"] = metric{float64(len(win.latencies)), "count"}
		res.Detail[as+"_per_s"] = metric{win.per(float64(len(win.latencies))), "1/s"}
		for _, p := range []struct {
			name string
			p    float64
		}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
			// Only percentiles with ten samples beyond them are printed.
			if v, ok := percentile(win.latencies, p.p); ok {
				res.Detail[as+"_"+p.name+"_ms"] = metric{v, "ms"}
			}
		}
	}
	job, side := windows[0], windows[1]
	set := func(name string, v float64, unit string, n int) {
		res.Metrics[name] = metric{v, unit}
		res.Samples[name] = n
	}
	p50, _ := percentile(job.latencies, 0.50)
	tail, _ := percentile(job.latencies, tailPercentile)
	sideP50, _ := percentile(side.latencies, 0.50)
	set("setup_s", median(setups), "s", len(setups))
	set("job_p50_ms", p50, "ms", len(job.latencies))
	set("job_p75_ms", tail, "ms", len(job.latencies))
	set("side_p50_ms", sideP50, "ms", len(side.latencies))
	set("pairs_per_s", pairsPerS, "1/s", res.Attempted-res.Failed)
	set("cpu_ms_per_kpair", spent.cpuSeconds*1e3/(pairs/1e3), "ms", 1)
	// Peak memory swings with GC timing by tens of percent between identical
	// runs, so it is printed but carries no bound.
	res.Detail["rss_peak_mb"] = metric{spent.rssPeakMB, "MB"}
	if w.sideWork != nil {
		name, perOp, unit := w.sideWork(e.c)
		res.Detail[name] = metric{side.per(float64(len(side.latencies)) * perOp), unit}
	}
	return res
}
