package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// sample is one timed client operation.
type sample struct {
	start, end time.Time
	pairs      int // candidate pairs in the verified answer
	failed     bool
}

// stream collects the samples of one kind of operation.
type stream struct {
	mu      sync.Mutex
	samples []sample
	errs    []string // first few failures, for the operator
}

// time runs op as one timed operation. A failed operation keeps its place in
// the attempt count but contributes no latency and no pairs.
func (s *stream) time(op func() (pairs int, err error)) {
	start := time.Now()
	pairs, err := op()
	smp := sample{start: start, end: time.Now(), pairs: pairs, failed: err != nil}
	s.mu.Lock()
	s.samples = append(s.samples, smp)
	if err != nil && len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
	s.mu.Unlock()
}

// env is one workload's running system: daemons, what was ingested into
// them, the oracle's answers, and the streams its clients fill.
type env struct {
	h         *harness
	c         *corpus
	nodes     []*daemon
	poolIDs   [poolSize]string
	fillerIDs []string // cluster_3node: what node 0 was preloaded with
	want      map[pair]answer
	wantBase  answer   // every filler's answer
	streams   []stream // one per workload.streams
}

// workload is one traffic mix against one daemon layout.
type workload struct {
	name string
	// streams names the kinds of operation the clients time. The first is
	// the job stream and the second the side stream of the end-to-end
	// metrics; every stream is printed in full as <name>_* detail figures.
	streams []string
	// sideWork, when set, names the work one side operation carries, for a
	// detail figure in work per second.
	sideWork func(c *corpus) (name string, perOp float64, unit string)
	// pairs lists the pool pairs whose oracle answers the workload checks
	// against; fillers need none, they all share base's.
	pairs []pair
	// setup brings the system up to the point where measured traffic can
	// start; all of it is timed as setup_s. setups is how many times a run
	// does it: three where it takes about a second, once where it takes six.
	setup  func(e *env, seconds float64) error
	setups int
	// clients returns one iteration function per closed-loop client; the
	// runner calls each in its own goroutine with i = 0, 1, 2, ... until the
	// deadline. An iteration returns false when it has run out of input.
	clients func(e *env) []func(i int) bool
}

var workloads = []workload{
	{name: "cold_single", streams: []string{"cold_a", "cold_b"}, setups: 3,
		pairs: selfPairs(), setup: setupSingle("-devices", "1", "-hybrid-cpu"), clients: coldClients},
	{name: "ingest_mix", streams: []string{"cold", "ingest"}, setups: 3,
		sideWork: func(c *corpus) (string, float64, string) {
			return "ingest_mb_per_s", float64(c.textBytes) / 1e6, "MB/s"
		},
		pairs: selfPairs(), setup: setupSingle("-devices", "1", "-hybrid-cpu", "-store-max-bytes", ingestBudget, "-store-sweep", "1s"), clients: ingestClients},
	{name: "matrix_qos", streams: []string{"probe", "matrix"}, setups: 3,
		sideWork: func(*corpus) (string, float64, string) { return "cells_per_s", poolSize * (poolSize - 1) / 2, "1/s" },
		pairs:    matrixPairs(), setup: setupSingle("-devices", "2", "-hybrid-cpu"), clients: matrixClients},
	{name: "cluster_3node", streams: []string{"pull_job", "hit_remote", "hit_lru"}, setups: 1,
		setup: setupCluster, clients: clusterClients},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// storeFillers pads the single-node stores beyond the pool, so that
	// listing, recovery and retention work over more than the hot six.
	storeFillers = 18
	// ingestBudget holds 29 datasets of 2.2 MiB, five more than set-up
	// ingests: retention evicts from the warm-up on, and its victims are
	// about three seconds old — the store's use clock ticks in seconds, so a
	// tighter budget would evict the pool on a tie.
	ingestBudget = "64MiB"
	// clusterPullsPerSecond bounds how fast the walker can consume node 0's
	// datasets; set-up preloads that many per second of traffic.
	clusterPullsPerSecond = 9
)

// warmup is how much traffic is discarded before measuring: enough for
// connections, the page cache and the executors' throughput memory to settle.
func warmup(seconds float64) time.Duration {
	w := time.Duration(seconds / 5 * float64(time.Second))
	if w < time.Second {
		w = time.Second
	}
	return w
}

// ingest PUTs the datasets through two uploaders (the machine's cores) and
// returns their content IDs in order.
func ingest(url string, sets []*dataset) ([]string, error) {
	ids := make([]string, len(sets))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sets); i += 2 {
				id, err := putDataset(url, sets[i], sets[i].body())
				if err != nil {
					errs[w] = err
					return
				}
				ids[i] = id
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// setupSingle is the set-up of the single-node workloads: one daemon with
// the given flags on a fresh directory, then the fillers and the pool PUT
// into it. The pool goes last, so that it is the most recently used content
// when retention looks for victims.
func setupSingle(flags ...string) func(*env, float64) error {
	return func(e *env, _ float64) error {
		dir, err := e.h.dataDir("single")
		if err != nil {
			return err
		}
		addrs, err := freeAddrs(1)
		if err != nil {
			return err
		}
		d, err := e.h.start("node0", addrs[0], dir, flags...)
		if err != nil {
			return err
		}
		e.nodes = []*daemon{d}
		sets := make([]*dataset, 0, storeFillers+poolSize)
		for k := 0; k < storeFillers; k++ {
			sets = append(sets, e.c.filler(k))
		}
		sets = append(sets, e.c.pool[:]...)
		ids, err := ingest(d.url, sets)
		if err != nil {
			return err
		}
		copy(e.poolIDs[:], ids[storeFillers:])
		return nil
	}
}

// checkJob verifies one job answer against the oracle: the submission's
// status and cached flag say which path answered, the report must match bit
// for bit.
func checkJob(jv jobView, code, wantCode int, want answer) (int, error) {
	if code != wantCode || jv.Cached != (wantCode == http.StatusOK) {
		return 0, fmt.Errorf("job %s: status %d cached=%v, want status %d", jv.ID, code, jv.Cached, wantCode)
	}
	got, ok := jv.answer()
	if !ok {
		return 0, fmt.Errorf("job %s: done without a report", jv.ID)
	}
	if !got.equal(want) {
		return 0, fmt.Errorf("job %s: answer %+v differs from the oracle's %+v", jv.ID, got, want)
	}
	return got.candidates, nil
}

// job runs one request on node as one operation of stream s and checks it:
// wantCode 202 means it must have been computed, 200 answered by a cache.
func (e *env) job(s int, node *daemon, body []byte, wantCode int, want answer) {
	e.streams[s].time(func() (int, error) {
		jv, code, err := runJob(node.url, body)
		if err != nil {
			return 0, err
		}
		return checkJob(jv, code, wantCode, want)
	})
}

// coldJob is one uncached job over pool dataset v: store read, decode,
// filter, aggregate, merge — nothing may be answered from a cache.
func (e *env) coldJob(s, v int) {
	e.job(s, e.nodes[0], jobBody(e.poolIDs[v], e.poolIDs[v], true), http.StatusAccepted, e.want[pair{v, v}])
}

// coldClients: both clients walk the pool, half a turn apart.
func coldClients(e *env) []func(int) bool {
	return []func(int) bool{
		func(i int) bool { e.coldJob(0, i%poolSize); return true },
		func(i int) bool { e.coldJob(1, (i+poolSize/2)%poolSize); return true },
	}
}

// ingestClients: client A is the cold_single loop, client B ingests a
// dataset the store has never seen on every request.
func ingestClients(e *env) []func(int) bool {
	return []func(int) bool{
		func(i int) bool { e.coldJob(0, i%poolSize); return true },
		func(i int) bool {
			// The next body is built here, outside the timed interval.
			ds := e.c.filler(storeFillers + i)
			body := ds.body()
			e.streams[1].time(func() (int, error) {
				_, err := putDataset(e.nodes[0].url, ds, body)
				return 0, err
			})
			return true
		},
	}
}

// matrixPairs are what matrix_qos checks: the probe's six own jobs and the
// fifteen cells a symmetric matrix computes, A(i) x B(j) for i < j.
func matrixPairs() []pair {
	ps := selfPairs()
	for i := 0; i < poolSize; i++ {
		for j := i + 1; j < poolSize; j++ {
			ps = append(ps, pair{i, j})
		}
	}
	return ps
}

// matrixClients: client A probes with interactive cold jobs; client B runs
// uncached 6-way matrices back to back on the batch band. The daemon has two
// slots, one of them reserved for interactive jobs by default.
func matrixClients(e *env) []func(int) bool {
	return []func(int) bool{
		func(i int) bool { e.coldJob(0, i%poolSize); return true },
		func(int) bool {
			e.streams[1].time(func() (int, error) {
				if _, err := call(http.MethodDelete, e.nodes[0].url+"/cache", nil, nil); err != nil {
					return 0, err
				}
				mv, err := runMatrix(e.nodes[0].url, e.poolIDs[:])
				if err != nil {
					return 0, err
				}
				pairs := 0
				for i := 0; i < poolSize; i++ {
					for j := i + 1; j < poolSize; j++ {
						// Cell {i,j} is computed once as A(i) x B(j); {j,i} is its copy.
						want := e.want[pair{i, j}]
						for _, cell := range []struct{ r, c int }{{i, j}, {j, i}} {
							cv := mv.Cells[cell.r][cell.c]
							got := answer{cv.Similarity, cv.Candidates, cv.Intersecting}
							if cv.State != "done" || !got.equal(want) {
								return 0, fmt.Errorf("matrix %s cell %d,%d: %s %+v, oracle %+v", mv.ID, cell.r, cell.c, cv.State, got, want)
							}
						}
						pairs += want.candidates
					}
				}
				return pairs, nil
			})
			return true
		},
	}
}

// setupCluster: three CPU-only nodes; node 0 alone holds the datasets the
// walker will ask the other two for.
func setupCluster(e *env, seconds float64) error {
	addrs, err := freeAddrs(3)
	if err != nil {
		return err
	}
	for i, addr := range addrs {
		dir, err := e.h.dataDir(fmt.Sprintf("node%d", i))
		if err != nil {
			return err
		}
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, "http://"+a)
			}
		}
		d, err := e.h.start(fmt.Sprintf("node%d", i), addr, dir, "-devices", "0",
			"-peers", strings.Join(peers, ","), "-advertise", "http://"+addr)
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, d)
	}
	n := int((warmup(seconds).Seconds() + seconds) * clusterPullsPerSecond)
	sets := make([]*dataset, n)
	for k := range sets {
		sets[k] = e.c.filler(k)
	}
	e.fillerIDs, err = ingest(e.nodes[0].url, sets)
	return err
}

// clusterClients: one client walks node 0's datasets. Each is first asked of
// a node that does not hold it — a miss everywhere, so that node pulls it
// peer to peer, verifies, imports, computes and persists — then of the other
// non-holder, which must be answered by the cluster-wide result cache, and
// once more of the first, whose own LRU tier now holds it. The last is the
// only place a local cache tier answers over a real socket; its sub-ms
// latency follows the host's wake-up cost too closely to carry a bound.
func clusterClients(e *env) []func(int) bool {
	return []func(int) bool{func(k int) bool {
		if k >= len(e.fillerIDs) {
			return false
		}
		puller, reader := e.nodes[1+k%2], e.nodes[2-k%2]
		body := jobBody(e.fillerIDs[k], e.fillerIDs[k], false)
		e.job(0, puller, body, http.StatusAccepted, e.wantBase)
		e.job(1, reader, body, http.StatusOK, e.wantBase)
		e.job(2, puller, body, http.StatusOK, e.wantBase)
		return true
	}}
}
