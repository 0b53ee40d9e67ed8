package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pathology"
	"repro/internal/pathologytest"
	"repro/internal/store"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"host:8080", "http://host:8080", true},
		{"http://host:8080", "http://host:8080", true},
		{"http://host:8080/", "http://host:8080", true},
		{" https://host ", "https://host", true},
		{"", "", false},
		{"ftp://host", "", false},
		{"http://", "", false},
		{"http://host:8080/api", "", false},
		{"http://host:8080?x=1", "", false},
	}
	for _, c := range cases {
		got, err := cluster.Normalize(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Normalize(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("Normalize(%q) = %q; want error", c.in, got)
		}
	}
}

func TestParsePeers(t *testing.T) {
	got, err := cluster.ParsePeers("a:1, http://a:1 ,b:2,,")
	if err != nil {
		t.Fatalf("ParsePeers: %v", err)
	}
	want := []string{"http://a:1", "http://b:2"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ParsePeers = %v, want %v", got, want)
	}
	if _, err := cluster.ParsePeers(" , "); err == nil {
		t.Fatal("ParsePeers on an empty list: want error")
	}
	if _, err := cluster.ParsePeers("a:1,ftp://b"); err == nil {
		t.Fatal("ParsePeers with a bad scheme: want error")
	}
}

// newNode builds a test node with the background prober effectively parked.
// newNode builds a node over st, or over a fresh temp store when st is nil.
func newNode(t *testing.T, self string, peers []string, st *store.Store) *cluster.Node {
	t.Helper()
	if st == nil {
		var err error
		if st, err = store.Open(t.TempDir()); err != nil {
			t.Fatalf("store.Open: %v", err)
		}
	}
	n, err := cluster.New(cluster.Config{
		Self:          self,
		Peers:         peers,
		Store:         st,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestNewRequiresStore: a node pulls into its store, so one without a store
// is refused at construction rather than at its first pull.
func TestNewRequiresStore(t *testing.T) {
	n, err := cluster.New(cluster.Config{Self: "http://self:1", Peers: []string{"http://peer:2"}, ProbeInterval: time.Hour})
	if err == nil || !strings.Contains(err.Error(), "store") {
		if n != nil {
			n.Close()
		}
		t.Fatalf("New without a store: %v, want an error naming the store", err)
	}
}

// TestRendezvousAgreement: every node, ranking the same membership, picks the
// same owner for every key — placement needs no coordinator.
func TestRendezvousAgreement(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2", "http://c:3"}
	var nodes []*cluster.Node
	for i, self := range addrs {
		peers := append(append([]string(nil), addrs[:i]...), addrs[i+1:]...)
		nodes = append(nodes, newNode(t, self, peers, nil))
	}
	owners := make(map[string]int)
	for _, key := range []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10"} {
		want := nodes[0].Ranked(key)[0].Addr
		for _, n := range nodes[1:] {
			if got := n.Ranked(key)[0].Addr; got != want {
				t.Fatalf("owner of %q: node %s says %s, node %s says %s",
					key, n.Health().Advertise, got, addrs[0], want)
			}
		}
		owners[want]++
	}
	if len(owners) < 2 {
		t.Fatalf("10 keys all landed on one node: %v", owners)
	}
	// Self is always a live hop, so a walk can always terminate locally.
	for i, n := range nodes {
		found := false
		for _, hop := range n.Ranked("k1") {
			if hop.Peer == nil {
				if hop.Addr != addrs[i] {
					t.Fatalf("self hop has addr %s, want %s", hop.Addr, addrs[i])
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("Ranked omits the self hop on %s", addrs[i])
		}
	}
}

func ingest(t *testing.T, st *store.Store, image string, seed int64, tiles int) *store.Manifest {
	t.Helper()
	spec := pathology.Representative()
	spec.Name = image
	spec.Seed = seed
	spec.Tiles = tiles
	man, err := pathologytest.Ingest(st, pathology.Generate(spec))
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	return man
}

// servePeer exposes a store's manifest+segment the way a real node does, with
// corrupt optionally flipping one mid-segment byte.
func servePeer(t *testing.T, st *store.Store, corrupt bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /internal/datasets/{id}/manifest", func(w http.ResponseWriter, r *http.Request) {
		man, ok := st.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(man)
	})
	mux.HandleFunc("GET /internal/datasets/{id}/segment", func(w http.ResponseWriter, r *http.Request) {
		rc, size, err := st.OpenSegment(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		defer rc.Close()
		buf := make([]byte, size)
		if _, err := io.ReadFull(rc, buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if corrupt {
			buf[len(buf)/2] ^= 0xff
		}
		w.Write(buf)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestPullDatasetRejectsCorruptPeer: a peer serving flipped segment bytes is
// caught by per-tile digest verification; the pull fails without leaving any
// partial dataset on disk, and with a good replica present the pull falls
// back and succeeds.
func TestPullDatasetRejectsCorruptPeer(t *testing.T) {
	origin, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	man := ingest(t, origin, "pull-src", 11, 2)

	bad := servePeer(t, origin, true)

	dir := t.TempDir()
	local, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	n := newNode(t, "http://self:1", []string{bad.URL}, local)
	if _, err := n.PullDatasetCtx(context.Background(), man.ID); err == nil {
		t.Fatal("PullDatasetCtx from a corrupt peer: want error")
	} else if !strings.Contains(err.Error(), "digest") {
		t.Fatalf("PullDatasetCtx error %q does not name the digest check", err)
	}
	if local.Len() != 0 {
		t.Fatalf("corrupt pull published a dataset: store holds %d", local.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		t.Fatalf("corrupt pull left %q on disk", e.Name())
	}

	// A good replica behind the corrupt one: the walk skips the poisoned
	// answer and completes from the healthy owner.
	good := servePeer(t, origin, false)
	n2 := newNode(t, "http://self:1", []string{bad.URL, good.URL}, local)
	res, err := n2.PullDatasetCtx(context.Background(), man.ID)
	if err != nil {
		t.Fatalf("PullDatasetCtx with a good replica present: %v", err)
	}
	if res.Bytes != man.SegmentBytes && res.Bytes != 0 {
		t.Fatalf("pulled %d bytes, manifest says %d", res.Bytes, man.SegmentBytes)
	}
	got, ok := local.Get(man.ID)
	if !ok {
		t.Fatal("pulled dataset is not in the local store")
	}
	if got.ID != man.ID || len(got.Tiles) != len(man.Tiles) {
		t.Fatal("pulled manifest does not match the origin")
	}
	// Idempotent: a second pull is a no-op.
	if res, err := n2.PullDatasetCtx(context.Background(), man.ID); err != nil || res.Bytes != 0 {
		t.Fatalf("repeat pull = %d, %v; want 0, nil", res.Bytes, err)
	}
}

// TestPullDatasetNoHolder: when no reachable peer has the dataset the error
// wraps store.ErrNotFound so HTTP callers answer 404, not 502.
func TestPullDatasetNoHolder(t *testing.T) {
	origin, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	man := ingest(t, origin, "missing", 12, 2)
	empty, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	peer := servePeer(t, empty, false)

	local, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	n := newNode(t, "http://self:1", []string{peer.URL}, local)
	if _, err := n.PullDatasetCtx(context.Background(), man.ID); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("PullDatasetCtx with no holder = %v, want store.ErrNotFound", err)
	}
}

// TestPeerBackoff: a dead peer drops out of the live ranking after a failed
// request and Health reports it down.
func TestPeerBackoff(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.URL
	dead.Close() // nothing listens any more

	local, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	origin, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	man := ingest(t, origin, "backoff", 13, 2)

	n := newNode(t, "http://self:1", []string{deadAddr}, local)
	if _, err := n.PullDatasetCtx(context.Background(), man.ID); err == nil {
		t.Fatal("PullDatasetCtx via a dead peer: want error")
	}
	h := n.Health()
	if h.Reachable != 0 || len(h.Peers) != 1 || h.Peers[0].Up {
		t.Fatalf("Health after transport failure = %+v, want the peer down", h)
	}
	// Inside the backoff window the request path skips the peer entirely.
	for _, hop := range n.Ranked(man.ID) {
		if hop.Peer != nil && hop.Addr == deadAddr {
			t.Fatal("backed-off peer still in the live ranking")
		}
	}
}

// gatedPeer serves a store's manifest and segment like servePeer, but holds
// every request until release is closed, signalling entered on the first one,
// and counts the requests of each kind.
func gatedPeer(t *testing.T, st *store.Store, entered, release chan struct{}) (url string, manifests, segments *atomic.Int32) {
	t.Helper()
	manifests, segments = new(atomic.Int32), new(atomic.Int32)
	var once sync.Once
	hold := func(count *atomic.Int32) {
		count.Add(1)
		once.Do(func() { close(entered) })
		<-release
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /internal/datasets/{id}/manifest", func(w http.ResponseWriter, r *http.Request) {
		hold(manifests)
		man, ok := st.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(man)
	})
	mux.HandleFunc("GET /internal/datasets/{id}/segment", func(w http.ResponseWriter, r *http.Request) {
		hold(segments)
		rc, _, err := st.OpenSegment(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		defer rc.Close()
		io.Copy(w, rc)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, manifests, segments
}

// pullTogether runs callers concurrent pulls of id on n, releasing the peer
// only once the first pull is inside it and every other caller waits on it.
func pullTogether(t *testing.T, n *cluster.Node, id string, callers int, entered, release chan struct{}) ([]cluster.PullResult, []error) {
	t.Helper()
	res, errs := make([]cluster.PullResult, callers), make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = n.PullDatasetCtx(context.Background(), id)
		}(i)
	}
	<-entered
	for deadline := time.Now().Add(10 * time.Second); n.Joined(id) != callers-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatalf("%d callers joined the in-flight pull, want %d", n.Joined(id), callers-1)
		}
	}
	close(release)
	wg.Wait()
	return res, errs
}

// TestPullDatasetOneTransfer: concurrent pulls of one dataset make one
// transfer — one manifest and one segment request to the holder, one pull
// and one segment's bytes on the counters — and every caller sees it land.
func TestPullDatasetOneTransfer(t *testing.T) {
	origin, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	man := ingest(t, origin, "shared", 14, 2)
	entered, release := make(chan struct{}), make(chan struct{})
	url, manifests, segments := gatedPeer(t, origin, entered, release)

	local, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	reg := metrics.NewRegistry()
	n, err := cluster.New(cluster.Config{Self: "http://self:1", Peers: []string{url}, Store: local, Registry: reg, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(n.Close)

	const callers = 8
	res, errs := pullTogether(t, n, man.ID, callers, entered, release)
	copied := 0
	for i := range res {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if res[i].Peer != url {
			t.Fatalf("caller %d: served by %q, want %s", i, res[i].Peer, url)
		}
		if res[i].Bytes != 0 {
			copied++
			if res[i].Bytes != man.SegmentBytes || res[i].Verify <= 0 {
				t.Fatalf("leader copied %d bytes and verified for %v, want %d and some time", res[i].Bytes, res[i].Verify, man.SegmentBytes)
			}
		}
	}
	if copied != 1 {
		t.Fatalf("%d callers report copying the segment, want 1", copied)
	}
	if m, s := manifests.Load(), segments.Load(); m != 1 || s != 1 {
		t.Fatalf("holder served %d manifests and %d segments, want 1 and 1", m, s)
	}
	snap := reg.Snapshot()
	pulls := 0.0
	for name, v := range snap {
		if strings.HasPrefix(name, "sccgd_cluster_pull_seconds_count") {
			pulls += v
		}
	}
	if pulls != 1 {
		t.Fatalf("sum(sccgd_cluster_pull_seconds_count) = %v, want 1", pulls)
	}
	if got := snap["sccgd_cluster_pull_bytes_total"]; got != float64(man.SegmentBytes) {
		t.Fatalf("sccgd_cluster_pull_bytes_total = %v, want %d", got, man.SegmentBytes)
	}
	if _, ok := local.Get(man.ID); !ok {
		t.Fatal("the shared pull left nothing in the local store")
	}
}

// TestPullDatasetFollowersShareLeaderError: callers waiting on a pull that
// fails get the leader's error, and make no request of their own.
func TestPullDatasetFollowersShareLeaderError(t *testing.T) {
	origin, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	man := ingest(t, origin, "absent", 15, 2)
	empty, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	url, manifests, segments := gatedPeer(t, empty, entered, release)
	local, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	n := newNode(t, "http://self:1", []string{url}, local)

	_, errs := pullTogether(t, n, man.ID, 8, entered, release)
	for i, err := range errs {
		if !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("caller %d: %v, want the leader's store.ErrNotFound", i, err)
		}
	}
	if m, s := manifests.Load(), segments.Load(); m != 1 || s != 0 {
		t.Fatalf("holder served %d manifests and %d segments, want 1 and 0", m, s)
	}
}
