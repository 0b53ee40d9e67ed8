// Package cluster is the peer layer of a multi-node sccgd deployment: any
// node can accept any request, and placement is pure hashing. Rendezvous
// (HRW) hashing on the content key ranks the membership per dataset or
// result, so every node independently agrees on the owners with no
// coordinator, no ring state, and minimal reshuffling when membership
// changes. Because datasets are immutable and content-addressed, a node that
// receives work for data it doesn't hold simply pulls segment+manifest from
// an owner peer and verifies every byte on arrival (store.Import re-checks
// each tile digest), so a corrupt or malicious peer can never poison a
// store. Peer health is tracked per node with exponential retry backoff; a
// cluster degraded to one reachable node degrades to exactly the single-node
// behavior.
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
)

const (
	defaultProbeInterval = 5 * time.Second
	probeTimeout         = 2 * time.Second
	manifestTimeout      = 15 * time.Second
	segmentTimeout       = 5 * time.Minute
	// maxManifestBytes bounds a peer-served manifest read; manifests are a
	// few hundred bytes per tile, so this is generous without being unbounded.
	maxManifestBytes = 64 << 20

	peerBackoffBase = 500 * time.Millisecond
	peerBackoffMax  = 15 * time.Second
)

// ErrPeerMiss marks a peer answering 404: reachable, just not holding the
// requested resource. Callers move on to the next ranked owner.
var ErrPeerMiss = errors.New("cluster: peer does not hold the resource")

// Normalize canonicalizes a node address to a bare scheme://host base URL,
// so the same node spelled "host:8080", "http://host:8080", or
// "http://host:8080/" always hashes to the same rendezvous scores.
func Normalize(addr string) (string, error) {
	s := strings.TrimSpace(addr)
	if s == "" {
		return "", errors.New("empty address")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("unsupported scheme %q", u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("no host in %q", addr)
	}
	if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("address %q must be a bare scheme://host[:port]", addr)
	}
	return u.Scheme + "://" + u.Host, nil
}

// ParsePeers splits a comma-separated -peers value into normalized base
// URLs, deduplicated with order preserved.
func ParsePeers(csv string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		addr, err := Normalize(part)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", part, err)
		}
		if seen[addr] {
			continue
		}
		seen[addr] = true
		out = append(out, addr)
	}
	if len(out) == 0 {
		return nil, errors.New("cluster: peer list names no addresses")
	}
	return out, nil
}

// Peer is one remote node's address plus its tracked health. A peer starts
// optimistically reachable; transport failures push it into an exponential
// backoff window (500ms doubling to 15s) during which the request path skips
// it, while the background prober keeps testing it so recovery is noticed
// within one probe interval.
type Peer struct {
	addr string

	mu       sync.Mutex
	up       bool
	fails    int
	retryAt  time.Time
	lastErr  string
	lastSeen time.Time
}

func (p *Peer) markUp() {
	p.mu.Lock()
	p.up = true
	p.fails = 0
	p.retryAt = time.Time{}
	p.lastErr = ""
	p.lastSeen = time.Now()
	p.mu.Unlock()
}

func (p *Peer) markDown(err error) {
	p.mu.Lock()
	p.up = false
	p.fails++
	backoff := peerBackoffBase << min(p.fails-1, 6)
	if backoff > peerBackoffMax {
		backoff = peerBackoffMax
	}
	p.retryAt = time.Now().Add(backoff)
	p.lastErr = err.Error()
	p.mu.Unlock()
}

// live reports whether the request path should try the peer: it is up, or
// its backoff window has elapsed (one request then acts as the retry probe).
func (p *Peer) live(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up || !now.Before(p.retryAt)
}

// Status is one peer's health as reported on /healthz.
type Status struct {
	Addr      string    `json:"addr"`
	Up        bool      `json:"up"`
	LastError string    `json:"last_error,omitempty"`
	LastSeen  time.Time `json:"last_seen,omitempty"`
}

func (p *Peer) status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Status{Addr: p.addr, Up: p.up, LastError: p.lastErr, LastSeen: p.lastSeen}
}

// Health is the cluster membership block /healthz serves.
type Health struct {
	Advertise string   `json:"advertise"`
	Peers     []Status `json:"peers"`
	Reachable int      `json:"reachable"`
}

// Config configures a cluster node.
type Config struct {
	// Self is this node's base URL as peers reach it (the -advertise flag).
	Self string
	// Peers lists the other nodes' base URLs (the -peers flag). Self is
	// filtered out, so every node can be started with the same full list.
	Peers []string
	// Store receives peer-pulled datasets; required.
	Store *store.Store
	// Registry, when set, receives the sccgd_cluster_* metrics.
	Registry *metrics.Registry
	Logger   *slog.Logger
	// ProbeInterval is the background peer health-check period (default 5s).
	ProbeInterval time.Duration
}

// Node is this process's view of the cluster: static membership, per-peer
// health, and the peer-to-peer pull client. All methods are safe for
// concurrent use; the peer list is immutable after New.
type Node struct {
	self  string
	peers []*Peer
	store *store.Store
	log   *slog.Logger

	client    *http.Client
	stop      chan struct{}
	mu        sync.Mutex
	inflight  map[string]*pull // dataset ID → the pull bringing it here
	closeOnce sync.Once
	wg        sync.WaitGroup

	pullFailures *metrics.Counter
	pullBytes    *metrics.Counter
	// pullSeconds holds one histogram per configured peer
	// (sccgd_cluster_pull_seconds{peer=...}): membership is static, so the
	// label cardinality is bounded by the peer list.
	pullSeconds map[string]*metrics.Histogram
}

// New builds a cluster node from static membership. The returned node runs a
// background health prober until Close.
func New(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("cluster: no store")
	}
	self, err := Normalize(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: advertise address: %w", err)
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	probeEvery := cfg.ProbeInterval
	if probeEvery <= 0 {
		probeEvery = defaultProbeInterval
	}
	n := &Node{
		self:  self,
		store: cfg.Store,
		log:   log.With("component", "cluster"),
		// No client-level timeout: each call bounds itself with a context
		// sized to its transfer (a segment pull may legitimately run minutes).
		client:   &http.Client{},
		stop:     make(chan struct{}),
		inflight: make(map[string]*pull),
	}
	seen := map[string]bool{self: true}
	for _, raw := range cfg.Peers {
		addr, err := Normalize(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", raw, err)
		}
		if seen[addr] {
			continue // duplicates and self are config echoes, not errors
		}
		seen[addr] = true
		n.peers = append(n.peers, &Peer{addr: addr, up: true})
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	n.pullFailures = reg.Counter("sccgd_cluster_pull_failures_total")
	n.pullBytes = reg.Counter("sccgd_cluster_pull_bytes_total")
	n.pullSeconds = make(map[string]*metrics.Histogram, len(n.peers))
	for _, p := range n.peers {
		n.pullSeconds[p.addr] = reg.Histogram(metrics.Label("sccgd_cluster_pull_seconds", "peer", p.addr))
	}
	reg.OnScrape(func(e *metrics.Emitter) {
		for _, p := range n.peers {
			up := 0.0
			if p.status().Up {
				up = 1
			}
			e.Gauge(metrics.Label("sccgd_cluster_peer_up", "peer", p.addr), up)
		}
	})
	n.wg.Add(1)
	go n.probeLoop(probeEvery)
	return n, nil
}

// Close stops the background prober.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// Health reports membership for /healthz: every configured peer with its
// tracked state, plus how many currently answer.
func (n *Node) Health() Health {
	h := Health{Advertise: n.self, Peers: make([]Status, 0, len(n.peers))}
	for _, p := range n.peers {
		st := p.status()
		if st.Up {
			h.Reachable++
		}
		h.Peers = append(h.Peers, st)
	}
	return h
}

// probeLoop checks every peer's /healthz each interval. It probes backed-off
// peers too — the backoff gates the request path, while the prober is the
// recovery mechanism that notices a peer coming back.
func (n *Node) probeLoop(every time.Duration) {
	defer n.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		for _, p := range n.peers {
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.addr+"/healthz", nil)
			if err == nil {
				resp, derr := n.do(req, p)
				if derr == nil {
					io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
					resp.Body.Close()
				}
			}
			cancel()
		}
	}
}

// rendezvousScore is the HRW weight of (node, key): every node computes the
// same scores, so the membership agrees on owner ranking with no shared
// state beyond the peer list itself.
func rendezvousScore(addr, key string) uint64 {
	h := sha256.Sum256([]byte(addr + "\x00" + key))
	return binary.BigEndian.Uint64(h[:8])
}

// Hop is one step of an owner walk: a peer, or this node itself (Peer nil).
type Hop struct {
	Addr string
	Peer *Peer
}

// ranked orders the full membership (self included) by rendezvous score for
// key, best placement first.
func (n *Node) ranked(key string) []Hop {
	hops := make([]Hop, 0, len(n.peers)+1)
	hops = append(hops, Hop{Addr: n.self})
	for _, p := range n.peers {
		hops = append(hops, Hop{Addr: p.addr, Peer: p})
	}
	sort.Slice(hops, func(i, j int) bool {
		si, sj := rendezvousScore(hops[i].Addr, key), rendezvousScore(hops[j].Addr, key)
		if si != sj {
			return si > sj
		}
		return hops[i].Addr < hops[j].Addr
	})
	return hops
}

// Ranked returns the nodes to consult for key, best placement first, with
// peers currently inside their failure-backoff window filtered out. This
// node itself is always present (it is always reachable), so a walk hitting
// the self hop can stop: no better-ranked live peer exists, handle it
// locally.
func (n *Node) Ranked(key string) []Hop {
	now := time.Now()
	all := n.ranked(key)
	out := make([]Hop, 0, len(all))
	for _, h := range all {
		if h.Peer == nil || h.Peer.live(now) {
			out = append(out, h)
		}
	}
	return out
}

// do issues one request to a peer and folds the outcome into its health:
// transport errors mark it down (entering backoff), any HTTP response —
// including a 404 — marks it up, because the peer answered. A trace context
// stashed in the request's context.Context (trace.WithContext) is injected
// as the traceparent header here, the single chokepoint every peer call
// passes through, so the remote side can run a child recorder under the
// caller's trace ID.
func (n *Node) do(req *http.Request, p *Peer) (*http.Response, error) {
	if tc := trace.FromContext(req.Context()); !tc.Zero() {
		req.Header.Set(trace.Header, tc.Traceparent())
	}
	resp, err := n.client.Do(req)
	if err != nil {
		p.markDown(err)
		return nil, err
	}
	p.markUp()
	return resp, nil
}

// decodeJSONResponse maps a peer's HTTP status and decodes a JSON body under
// a size limit. 404 becomes ErrPeerMiss.
func decodeJSONResponse(resp *http.Response, dst any, maxBytes int64) error {
	if resp.StatusCode == http.StatusNotFound {
		return ErrPeerMiss
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: peer answered %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBytes)).Decode(dst); err != nil {
		return fmt.Errorf("cluster: decode peer response: %w", err)
	}
	return nil
}

// GetJSON fetches path from a peer and decodes the JSON response into dst,
// updating the peer's health from the outcome. A 404 returns ErrPeerMiss.
func (n *Node) GetJSON(ctx context.Context, p *Peer, path string, dst any, maxBytes int64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := n.do(req, p)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeJSONResponse(resp, dst, maxBytes)
}

// DecodeManifest parses and validates a peer-served manifest for dataset id:
// well-formed JSON, ID agreement, and the store's full structural validation
// including the digest-fold-equals-ID check. Peer input is never trusted
// past this point — the segment bytes themselves are verified tile-by-tile
// inside store.Import.
func DecodeManifest(id string, raw []byte) (*store.Manifest, error) {
	var man store.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("cluster: manifest for %.12s: %w", id, err)
	}
	if man.ID != id {
		return nil, fmt.Errorf("cluster: peer served manifest %.12s for dataset %.12s", man.ID, id)
	}
	if err := man.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: manifest for %.12s: %w", id, err)
	}
	return &man, nil
}

// fetchManifest fetches and validates a peer's manifest. The peer's own
// serving spans (returned in the X-Sccg-Trace response header) accumulate
// into remote when non-nil.
func (n *Node) fetchManifest(ctx context.Context, p *Peer, id string, remote *trace.Trace) (*store.Manifest, error) {
	ctx, cancel := context.WithTimeout(ctx, manifestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.addr+"/internal/datasets/"+id+"/manifest", nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.do(req, p)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	collectHeaderTrace(remote, resp)
	if resp.StatusCode == http.StatusNotFound {
		return nil, ErrPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer answered %d for manifest %.12s", resp.StatusCode, id)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxManifestBytes))
	if err != nil {
		return nil, fmt.Errorf("cluster: read manifest %.12s: %w", id, err)
	}
	return DecodeManifest(id, raw)
}

// fetchSegment streams one peer's segment straight into the local store's
// Import, which size-checks the copy, syncs it beside verifying and decoding
// every tile, and publishes it, and returns how long Import spent after the
// copy.
func (n *Node) fetchSegment(ctx context.Context, p *Peer, man *store.Manifest, remote *trace.Trace) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, segmentTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.addr+"/internal/datasets/"+man.ID+"/segment", nil)
	if err != nil {
		return 0, err
	}
	resp, err := n.do(req, p)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	collectHeaderTrace(remote, resp)
	if resp.StatusCode == http.StatusNotFound {
		return 0, ErrPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: peer answered %d for segment %.12s", resp.StatusCode, man.ID)
	}
	_, verify, err := n.store.Import(man, resp.Body)
	return verify, err
}

// collectHeaderTrace appends a response's X-Sccg-Trace spans into remote.
// Header spans describe only the peer's pre-stream work (open, validate) —
// headers precede the body, so the transfer itself is the caller's span.
func collectHeaderTrace(remote *trace.Trace, resp *http.Response) {
	if remote == nil {
		return
	}
	if t := trace.DecodeHeaderTrace(resp.Header.Get(trace.ResponseHeader)); t != nil {
		remote.Spans = append(remote.Spans, t.Spans...)
	}
}

// PullResult describes a completed peer pull: the bytes copied (0 when the
// dataset was already local, or when another caller's pull brought it), the
// peer that served it, the peer's own serving spans for the caller to splice
// into its trace, and how much of the pull was syncing, verifying, decoding
// and publishing the copy rather than transferring it.
type PullResult struct {
	Bytes  int64
	Peer   string
	Remote *trace.Trace
	Verify time.Duration
}

// pull is one in-flight PullDatasetCtx: the caller that started it leads,
// later callers for the same dataset wait on done and take its outcome.
type pull struct {
	done   chan struct{}
	res    PullResult
	err    error
	joined int // callers waiting on done, guarded by Node.mu
}

// PullDatasetCtx fetches dataset id from the cluster into the local store:
// manifest first, then the raw segment, every byte verified on arrival.
// Owners are tried in rendezvous rank order; a peer serving corrupt bytes
// (digest or decode failure inside Import) is skipped and the next owner
// tried, so one bad replica can neither poison the store nor block the pull.
// A trace context stashed in ctx propagates to the serving peer, whose spans
// come back in the result. When no reachable peer holds the dataset, the
// error wraps store.ErrNotFound. Concurrent calls for one dataset make one
// transfer: the first leads, and the rest wait for its outcome — its error,
// or its serving peer with no bytes of their own.
func (n *Node) PullDatasetCtx(ctx context.Context, id string) (PullResult, error) {
	if !store.ValidateID(id) {
		return PullResult{}, fmt.Errorf("cluster: %q is not a dataset ID", id)
	}
	n.mu.Lock()
	if p, ok := n.inflight[id]; ok {
		p.joined++
		n.mu.Unlock()
		select {
		case <-p.done:
			return PullResult{Peer: p.res.Peer}, p.err
		case <-ctx.Done():
			return PullResult{}, ctx.Err()
		}
	}
	// Checked under mu: a leader publishes before it leaves the table, so a
	// dataset neither in flight nor stored needs a transfer.
	if _, ok := n.store.Get(id); ok {
		n.mu.Unlock()
		return PullResult{}, nil
	}
	p := &pull{done: make(chan struct{})}
	n.inflight[id] = p
	n.mu.Unlock()
	p.res, p.err = n.pull(ctx, id)
	n.mu.Lock()
	delete(n.inflight, id)
	n.mu.Unlock()
	close(p.done)
	return p.res, p.err
}

// pull walks the owners of id until one serves a copy that verifies.
func (n *Node) pull(ctx context.Context, id string) (PullResult, error) {
	start := time.Now()
	var lastErr error
	for _, hop := range n.Ranked(id) {
		if hop.Peer == nil {
			continue // self: nothing to pull from
		}
		remote := &trace.Trace{}
		man, err := n.fetchManifest(ctx, hop.Peer, id, remote)
		if err != nil {
			if errors.Is(err, ErrPeerMiss) {
				continue
			}
			n.pullFailures.Inc()
			n.log.Warn("manifest fetch failed", "dataset", id[:12], "peer", hop.Addr, "error", err)
			lastErr = err
			continue
		}
		verify, err := n.fetchSegment(ctx, hop.Peer, man, remote)
		if err != nil {
			n.pullFailures.Inc()
			n.log.Warn("dataset pull failed", "dataset", id[:12], "peer", hop.Addr, "error", err)
			lastErr = err
			continue
		}
		n.pullBytes.Add(man.SegmentBytes)
		if h := n.pullSeconds[hop.Addr]; h != nil {
			h.ObserveSince(start)
		}
		n.log.Info("dataset pulled", "dataset", id[:12], "peer", hop.Addr, "bytes", man.SegmentBytes)
		if len(remote.Spans) == 0 {
			remote = nil
		}
		return PullResult{Bytes: man.SegmentBytes, Peer: hop.Addr, Remote: remote, Verify: verify}, nil
	}
	if lastErr != nil {
		return PullResult{}, fmt.Errorf("cluster: pull dataset %.12s: %w", id, lastErr)
	}
	return PullResult{}, fmt.Errorf("cluster: %w: no reachable peer holds %.12s", store.ErrNotFound, id)
}
