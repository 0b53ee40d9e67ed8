package sccg_test

// Three-node cluster end-to-end: every node runs the full sccgd service
// stack over its own store, cross-wired as peers over real TCP listeners.
// The phases walk the clustering contract — a job lands on a node that
// doesn't hold the dataset and is answered after a digest-verified
// peer-to-peer pull; a K-way matrix computes every cell on the node it was
// sent to and is bit-identical to the single-node answer; repeating the
// matrix anywhere in the cluster recomputes nothing; a restarted node answers
// the repeat from the cluster-wide persisted cache with zero new jobs; and
// killing a peer mid-run does not change a single bit of the answer.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

type clusterCellView struct {
	State      string  `json:"state"`
	Cached     bool    `json:"cached"`
	Error      string  `json:"error"`
	Similarity float64 `json:"similarity"`
	Intersect  int     `json:"intersecting"`
	Candidates int     `json:"candidates"`
	Trace      *struct {
		Stages map[string]float64 `json:"stages"`
	} `json:"trace"`
}

type clusterMatrixStatus struct {
	ID    string              `json:"id"`
	State string              `json:"state"`
	Cells [][]clusterCellView `json:"cells"`
}

type clusterJobReply struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Report *struct {
		Similarity   float64 `json:"similarity"`
		Intersecting int     `json:"intersecting"`
		Candidates   int     `json:"candidates"`
	} `json:"report"`
}

// clusterTraceView decodes GET /jobs/{id}/trace far enough to check the
// cross-node picture: which peers contributed spans and where they sit.
type clusterTraceView struct {
	Trace struct {
		TraceID string  `json:"trace_id"`
		TotalMs float64 `json:"total_ms"`
		Spans   []struct {
			Name       string  `json:"name"`
			Detail     string  `json:"detail"`
			Peer       string  `json:"peer"`
			StartMs    float64 `json:"start_ms"`
			DurationMs float64 `json:"duration_ms"`
		} `json:"spans"`
	} `json:"trace"`
}

// scrapeSeries fetches one node's Prometheus exposition and indexes it by
// rendered series name: comment lines are skipped and the value is the text
// after the last space.
func scrapeSeries(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	vals := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("%s: bad sample line %q", url, line)
		}
		vals[line[:i]] = v
	}
	return vals
}

func clusterPost(t *testing.T, url string, body any, dst any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil {
		if err := json.Unmarshal(data, dst); err != nil {
			t.Fatalf("decode POST %s (%d): %v: %s", url, resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode
}

func clusterGet(t *testing.T, url string, dst any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func clusterIngest(t *testing.T, st *sccg.Store, image string, seed int64, tiles int) string {
	t.Helper()
	spec := sccg.Representative()
	spec.Name = image
	spec.Seed = seed
	spec.Tiles = tiles
	man, err := sccg.IngestDataset(st, sccg.GenerateDataset(spec))
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	return man.ID
}

// tileTouches counts every way a tile read through the store shows in a
// scrape: reads from disk and decoded-cache lookups.
func tileTouches(series map[string]float64) float64 {
	return series["sccgd_store_tile_read_seconds_count"] +
		series["sccgd_store_decoded_hits_total"] + series["sccgd_store_decoded_misses_total"]
}

func waitClusterJob(t *testing.T, base, id string) clusterJobReply {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var jr clusterJobReply
		if code := clusterGet(t, base+"/jobs/"+id, &jr); code != http.StatusOK {
			t.Fatalf("job poll = %d", code)
		}
		switch jr.State {
		case "done":
			return jr
		case "failed", "canceled":
			t.Fatalf("job %s ended %s: %s", id, jr.State, jr.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, jr.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func runClusterMatrix(t *testing.T, base string, ids []string) clusterMatrixStatus {
	t.Helper()
	var mst clusterMatrixStatus
	if code := clusterPost(t, base+"/matrix", map[string]any{"datasets": ids}, &mst); code != http.StatusAccepted {
		t.Fatalf("matrix submit on %s = %d", base, code)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for mst.State == "running" {
		if time.Now().After(deadline) {
			t.Fatalf("matrix %s stuck", mst.ID)
		}
		time.Sleep(10 * time.Millisecond)
		clusterGet(t, base+"/matrix/"+mst.ID, &mst)
	}
	if mst.State != "done" {
		t.Fatalf("matrix %s ended %s: %+v", mst.ID, mst.State, mst.Cells)
	}
	return mst
}

// sameMatrix asserts two matrix answers are bit-identical cell by cell.
func sameMatrix(t *testing.T, label string, got, want clusterMatrixStatus) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: grid %d rows, want %d", label, len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		for j := range got.Cells[i] {
			g, w := got.Cells[i][j], want.Cells[i][j]
			if i == j {
				continue
			}
			if g.State != "done" {
				t.Fatalf("%s: cell [%d][%d] = %q (%s)", label, i, j, g.State, g.Error)
			}
			if g.Similarity != w.Similarity || g.Intersect != w.Intersect || g.Candidates != w.Candidates {
				t.Fatalf("%s: cell [%d][%d] = (%v, %d, %d), single-node = (%v, %d, %d)",
					label, i, j, g.Similarity, g.Intersect, g.Candidates,
					w.Similarity, w.Intersect, w.Candidates)
			}
		}
	}
}

func TestClusterEndToEnd(t *testing.T) {
	const n = 3
	// Listeners first: every node must know the full membership before any
	// service starts, and a restart must keep its address.
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}

	dirs := make([]string, n)
	svcs := make([]*sccg.Service, n)
	handlers := make([]*atomic.Value, n)
	newSvc := func(i int) *sccg.Service {
		st, err := sccg.OpenStore(dirs[i])
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		return sccg.NewService(sccg.ServiceOptions{
			Devices:   1,
			Store:     st,
			Peers:     peers,
			Advertise: addrs[i],
		})
	}
	srvs := make([]*http.Server, n)
	for i := 0; i < n; i++ {
		dirs[i] = t.TempDir()
		svcs[i] = newSvc(i)
		handlers[i] = &atomic.Value{}
		handlers[i].Store(svcs[i].Handler())
		h := handlers[i]
		srvs[i] = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(http.Handler).ServeHTTP(w, r)
		})}
		go srvs[i].Serve(lns[i])
	}
	alive := []bool{true, true, true}
	defer func() {
		for i := 0; i < n; i++ {
			if alive[i] {
				srvs[i].Close()
				svcs[i].Close()
			}
		}
	}()

	// The single-node reference: same content, no peers.
	baseSt, err := sccg.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	baseline := sccg.NewService(sccg.ServiceOptions{Devices: 1, Store: baseSt})
	defer baseline.Close()
	baseLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseSrv := &http.Server{Handler: baseline.Handler()}
	go baseSrv.Serve(baseLn)
	defer baseSrv.Close()
	baseURL := "http://" + baseLn.Addr().String()

	// Ingest on node A only; the baseline gets identical content (content
	// addressing makes the IDs provably the same data).
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		id := clusterIngest(t, svcs[0].Store(), "slideC", seed, 2)
		if base := clusterIngest(t, baseSt, "slideC", seed, 2); base != id {
			t.Fatalf("content IDs diverged: %s vs %s", id, base)
		}
		ids = append(ids, id)
	}

	// /healthz reports membership.
	var hz struct {
		Cluster struct {
			Advertise string `json:"advertise"`
			Peers     []struct {
				Addr string `json:"addr"`
				Up   bool   `json:"up"`
			} `json:"peers"`
			Reachable int `json:"reachable"`
		} `json:"cluster"`
	}
	clusterGet(t, addrs[1]+"/healthz", &hz)
	if hz.Cluster.Advertise != addrs[1] || len(hz.Cluster.Peers) != 2 {
		t.Fatalf("healthz cluster block = %+v", hz.Cluster)
	}

	// Phase 1: a job on node B for a dataset only node A holds. B pulls the
	// dataset peer-to-peer (digest-verified) and computes locally.
	var jr clusterJobReply
	if code := clusterPost(t, addrs[1]+"/jobs", map[string]any{"dataset_id": ids[0]}, &jr); code != http.StatusAccepted {
		t.Fatalf("job on B = %d", code)
	}
	got := waitClusterJob(t, addrs[1], jr.ID)
	if _, ok := svcs[1].Store().Get(ids[0]); !ok {
		t.Fatal("node B did not pull the dataset into its store")
	}
	// The tile-read histogram mirrors the access pattern exactly: the peer
	// pull verified and decoded each of the dataset's two tiles once and
	// handed the sets to the decoded cache, so the job itself read nothing
	// from disk and missed nothing.
	const tileReads = "sccgd_store_tile_read_seconds_count"
	series := scrapeSeries(t, addrs[1]+"/metrics")
	if n := series[tileReads]; n != 2 {
		t.Fatalf("node B observed %v tile reads after pulling a 2-tile dataset for one job, want exactly 2", n)
	}
	if n := series["sccgd_store_decoded_misses_total"]; n != 0 {
		t.Fatalf("node B's job missed the decoded cache %v times after the pull, want 0", n)
	}
	// The job's trace splits the pull into its transfer and its verification,
	// back to back.
	var pt clusterTraceView
	if code := clusterGet(t, addrs[1]+"/jobs/"+jr.ID+"/trace", &pt); code != http.StatusOK {
		t.Fatalf("job trace on B = %d", code)
	}
	pullSpans := map[string][2]float64{}
	for _, sp := range pt.Trace.Spans {
		if sp.Peer == "" && strings.HasPrefix(sp.Detail, "pull ") {
			pullSpans[sp.Name] = [2]float64{sp.StartMs, sp.StartMs + sp.DurationMs}
		}
	}
	transfer, ok1 := pullSpans["cluster"]
	verify, ok2 := pullSpans["verify"]
	if !ok1 || !ok2 || math.Abs(transfer[1]-verify[0]) > 0.01 || verify[1] <= verify[0] {
		t.Fatalf("pull spans %v, want a cluster transfer span and a verify span right after it", pullSpans)
	}
	var bjr clusterJobReply
	clusterPost(t, baseURL+"/jobs", map[string]any{"dataset_id": ids[0]}, &bjr)
	want := waitClusterJob(t, baseURL, bjr.ID)
	if got.Report == nil || want.Report == nil || *got.Report != *want.Report {
		t.Fatalf("pulled job report %+v != single-node %+v", got.Report, want.Report)
	}

	// The same job repeated on node C is a cluster-wide cache hit: no new
	// scheduler submission anywhere.
	before := submittedSum(svcs, alive)
	var rjr clusterJobReply
	code := clusterPost(t, addrs[2]+"/jobs", map[string]any{"dataset_id": ids[0]}, &rjr)
	if code != http.StatusOK || !rjr.Cached {
		t.Fatalf("repeat job on C = %d cached=%v, want 200/cached", code, rjr.Cached)
	}
	if after := submittedSum(svcs, alive); after != before {
		t.Fatalf("cluster cache hit still submitted jobs: %d -> %d", before, after)
	}
	// Nor did the cached answer read a tile anywhere, from disk or from the
	// decoded cache: C never pulled the dataset, and B's count is still the
	// one pull.
	if n := tileTouches(scrapeSeries(t, addrs[2]+"/metrics")); n != 0 {
		t.Fatalf("node C observed %v tile reads serving a cluster cache hit, want 0", n)
	}
	if n := scrapeSeries(t, addrs[1]+"/metrics")[tileReads]; n != 2 {
		t.Fatalf("node B observed %v tile reads after C's cache hit, want still 2", n)
	}

	// Phase 2: K-way matrix on B, bit-identical to the single-node answer.
	// B pulled and pinned every dataset to plan the run, so every cold cell
	// computes there: one job per cell on B, none on A or C, and C never
	// sees the data.
	baseMx := runClusterMatrix(t, baseURL, ids)
	var submitted [n]int64
	for i, svc := range svcs {
		submitted[i] = svc.Scheduler().Stats().Submitted
	}
	mx1 := runClusterMatrix(t, addrs[1], ids)
	sameMatrix(t, "matrix on B", mx1, baseMx)
	cells := int64(len(ids) * (len(ids) - 1) / 2)
	for i, svc := range svcs {
		want := submitted[i]
		if i == 1 {
			want += cells
		}
		if got := svc.Scheduler().Stats().Submitted; got != want {
			t.Fatalf("node %d submitted %d jobs for a %d-cell matrix on B, want %d",
				i, got-submitted[i], cells, want-submitted[i])
		}
	}
	for _, id := range ids {
		if _, ok := svcs[2].Store().Get(id); ok {
			t.Fatalf("node C holds dataset %.12s after a matrix on B", id)
		}
	}

	// Phase 3: the same matrix on C recomputes nothing, cluster-wide.
	before = submittedSum(svcs, alive)
	mx2 := runClusterMatrix(t, addrs[2], ids)
	sameMatrix(t, "repeat matrix on C", mx2, baseMx)
	if after := submittedSum(svcs, alive); after != before {
		t.Fatalf("repeat matrix submitted %d new jobs", after-before)
	}
	for i := range mx2.Cells {
		for j := range mx2.Cells[i] {
			if i == j {
				continue
			}
			c := mx2.Cells[i][j]
			if !c.Cached {
				t.Fatalf("repeat matrix cell [%d][%d] not served from cache", i, j)
			}
			// The answer came from B's table, and the cell's trace says so.
			if c.Trace == nil || !hasKey(c.Trace.Stages, "cluster") {
				t.Fatalf("repeat matrix cell [%d][%d] trace %+v has no cluster stage", i, j, c.Trace)
			}
		}
	}

	// Phase 4: restart node B (same dir, same address). Its in-memory cache
	// is gone; the repeat matrix must still cost zero jobs anywhere — local
	// persisted entries plus the cluster-wide read-through cover every cell.
	svcs[1].Close()
	svcs[1] = newSvc(1)
	handlers[1].Store(svcs[1].Handler())
	before = submittedSum(svcs, alive)
	mx3 := runClusterMatrix(t, addrs[1], ids)
	sameMatrix(t, "matrix on restarted B", mx3, baseMx)
	if after := submittedSum(svcs, alive); after != before {
		t.Fatalf("restarted node recomputed %d cells", after-before)
	}
	if n := tileTouches(scrapeSeries(t, addrs[1]+"/metrics")); n != 0 {
		t.Fatalf("restarted B observed %v tile reads answering the matrix from cache, want 0", n)
	}

	// The query log survived the restart: the phase-1 peer pull is still on
	// record, attributed to node A and tied to a trace.
	var qlr struct {
		Schema  string `json:"schema"`
		Records []struct {
			Kind     string `json:"kind"`
			Outcome  string `json:"outcome"`
			Peer     string `json:"peer"`
			TraceID  string `json:"trace_id"`
			Datasets []struct {
				ID string `json:"id"`
			} `json:"datasets"`
		} `json:"records"`
		Skipped map[string]int `json:"skipped"`
	}
	if code := clusterGet(t, addrs[1]+"/querylog?kind=pull", &qlr); code != http.StatusOK {
		t.Fatalf("querylog on restarted B = %d", code)
	}
	if qlr.Schema != "sccg-qlog/1" {
		t.Fatalf("querylog schema = %q", qlr.Schema)
	}
	for reason, count := range qlr.Skipped {
		if count != 0 {
			t.Fatalf("querylog skipped %d records (%s)", count, reason)
		}
	}
	foundPull := false
	for _, rec := range qlr.Records {
		if rec.Kind != "pull" || len(rec.Datasets) == 0 || rec.Datasets[0].ID != ids[0] {
			continue
		}
		foundPull = true
		if rec.Outcome != "pulled" || rec.Peer != addrs[0] || rec.TraceID == "" {
			t.Fatalf("pull record = outcome=%q peer=%q trace=%q, want pulled from %s with a trace ID",
				rec.Outcome, rec.Peer, rec.TraceID, addrs[0])
		}
	}
	if !foundPull {
		t.Fatalf("no pull record for %s survived B's restart", ids[0])
	}

	// Phase 5: cross-node trace propagation. dA lives only on A, dB only on
	// B, so a cross job on C must pull one dataset from each peer — and the
	// job's trace must show both remote legs, peer-attributed and inside the
	// job's wall time.
	dA := clusterIngest(t, svcs[0].Store(), "traceX", 41, 2)
	dB := clusterIngest(t, svcs[1].Store(), "traceX", 42, 2)
	var cjr clusterJobReply
	if code := clusterPost(t, addrs[2]+"/jobs", map[string]any{"dataset_a": dA, "dataset_b": dB}, &cjr); code != http.StatusAccepted {
		t.Fatalf("cross job on C = %d", code)
	}
	waitClusterJob(t, addrs[2], cjr.ID)
	var tv clusterTraceView
	if code := clusterGet(t, addrs[2]+"/jobs/"+cjr.ID+"/trace", &tv); code != http.StatusOK {
		t.Fatalf("job trace on C = %d", code)
	}
	if tv.Trace.TraceID == "" {
		t.Fatal("job trace carries no trace ID")
	}
	remote := map[string]bool{}
	for _, sp := range tv.Trace.Spans {
		if sp.Peer == "" {
			continue
		}
		remote[sp.Peer] = true
		if sp.StartMs < 0 || sp.StartMs+sp.DurationMs > tv.Trace.TotalMs+1 {
			t.Fatalf("remote span %q from %s at [%.2f, %.2f]ms escapes job wall time %.2fms",
				sp.Name, sp.Peer, sp.StartMs, sp.StartMs+sp.DurationMs, tv.Trace.TotalMs)
		}
	}
	if !remote[addrs[0]] || !remote[addrs[1]] {
		t.Fatalf("remote spans from %v, want both %s and %s", remote, addrs[0], addrs[1])
	}

	// Phase 6: metrics are per node. The peer surface serves no exposition;
	// cluster-wide totals are summed by whoever scrapes every node.
	if code := clusterGet(t, addrs[0]+"/internal/metrics", nil); code != http.StatusNotFound {
		t.Fatalf("GET /internal/metrics on a clustered node = %d, want 404", code)
	}
	// Nor does it compute on a peer's behalf: cells run where their matrix runs.
	if code := clusterPost(t, addrs[0]+"/internal/compare", map[string]any{"dataset_a": dA, "dataset_b": dB}, nil); code != http.StatusNotFound {
		t.Fatalf("POST /internal/compare on a clustered node = %d, want 404", code)
	}

	// Phase 7: fresh datasets on A, matrix on B, and node C dies mid-run.
	// The read-through skips the dead peer and the answer doesn't move.
	var ids2 []string
	for seed := int64(5); seed <= 7; seed++ {
		id := clusterIngest(t, svcs[0].Store(), "slideC", seed, 2)
		clusterIngest(t, baseSt, "slideC", seed, 2)
		ids2 = append(ids2, id)
	}
	baseMx2 := runClusterMatrix(t, baseURL, ids2)

	var kill clusterMatrixStatus
	if code := clusterPost(t, addrs[1]+"/matrix", map[string]any{"datasets": ids2}, &kill); code != http.StatusAccepted {
		t.Fatalf("degrade matrix submit = %d", code)
	}
	srvs[2].Close()
	svcs[2].Close()
	alive[2] = false
	deadline := time.Now().Add(5 * time.Minute)
	for kill.State == "running" {
		if time.Now().After(deadline) {
			t.Fatalf("degraded matrix stuck: %+v", kill.Cells)
		}
		time.Sleep(10 * time.Millisecond)
		clusterGet(t, addrs[1]+"/matrix/"+kill.ID, &kill)
	}
	if kill.State != "done" {
		t.Fatalf("matrix with a dead peer ended %s: %+v", kill.State, kill.Cells)
	}
	sameMatrix(t, "matrix with a dead peer", kill, baseMx2)
}

func hasKey(m map[string]float64, k string) bool {
	_, ok := m[k]
	return ok
}

func submittedSum(svcs []*sccg.Service, alive []bool) int64 {
	var sum int64
	for i, svc := range svcs {
		if alive[i] {
			sum += svc.Scheduler().Stats().Submitted
		}
	}
	return sum
}
