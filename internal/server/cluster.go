package server

// Server-side cluster glue: the peer-to-peer HTTP surface other nodes call
// (/internal/*), and the client-side hooks the submission path uses in
// clustered mode — peer-pull of missing datasets and the cluster-wide result
// cache read-through. There is one placement rule: work computes on the node
// that was asked, after pulling what it lacks. A matrix cell is no exception;
// its run has already pulled and pinned every dataset on that node.
//
// Trust model: nothing a peer serves is taken at face value. Manifests must
// fold back to their content address and segments are digest-verified
// tile-by-tile before publish (both inside store.Import / cluster.Node);
// result payloads enter through resultStore.adopt, which requires the
// expected key and the exact tile-partial re-fold it requires of its own disk
// files. An invalid answer is treated as a peer failure: skipped, logged,
// never served.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/querylog"
	"repro/internal/store"
	"repro/internal/trace"
)

const (
	// clusterResultTimeout bounds a cache probe: owners answer from memory
	// or one disk read, so a slow peer is a down peer.
	clusterResultTimeout = 5 * time.Second
	// maxClusterResultBytes bounds a peer result payload (reports carry
	// per-tile partials, still far below this).
	maxClusterResultBytes = 64 << 20
)

// peerRecorder starts a child recorder under the caller's traceparent, so
// spans recorded while serving a peer request share the caller's trace ID. A
// caller without a (valid) traceparent still gets spans — under a fresh
// trace identity.
func peerRecorder(r *http.Request) *trace.Recorder {
	parent, _ := trace.ParseTraceparent(r.Header.Get(trace.Header))
	return trace.NewRecorderFrom(parent)
}

// setHeaderTrace attaches the recorder's spans to the response as the
// X-Sccg-Trace header — the return channel for byte-stream endpoints whose
// bodies are raw data. Must run before the first body write.
func setHeaderTrace(w http.ResponseWriter, rec *trace.Recorder) {
	if enc := trace.EncodeHeaderTrace(rec.Snapshot()); enc != "" {
		w.Header().Set(trace.ResponseHeader, enc)
	}
}

// handleClusterManifest serves a stored dataset's manifest to a peer.
func (s *Server) handleClusterManifest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !store.ValidateID(id) {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("%q is not a dataset ID", id))
		return
	}
	rec := peerRecorder(r)
	start := time.Now()
	man, ok := s.store.Get(id)
	rec.Add("serve_manifest", id[:12], start, time.Now())
	if !ok {
		s.fail(w, http.StatusNotFound, store.ErrNotFound)
		return
	}
	setHeaderTrace(w, rec)
	writeJSON(w, http.StatusOK, man)
}

// handleClusterSegment streams a stored dataset's raw segment bytes to a
// peer. The receiver digest-verifies every tile on import, so this serves
// plain bytes with no further framing. The trace header only covers work
// before the stream starts (headers precede the body on the wire); the
// caller's own span brackets the full transfer.
func (s *Server) handleClusterSegment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !store.ValidateID(id) {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("%q is not a dataset ID", id))
		return
	}
	rec := peerRecorder(r)
	start := time.Now()
	rc, size, err := s.store.OpenSegment(id)
	rec.Add("serve_segment", id[:12], start, time.Now())
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, store.ErrNotFound) {
			code = http.StatusNotFound
		}
		s.fail(w, code, err)
		return
	}
	defer rc.Close()
	setHeaderTrace(w, rec)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	_, _ = io.Copy(w, rc)
}

// handleClusterResult answers a peer's cache probe from this node's own
// result store only. It never forwards to other peers: the requester walks
// the owner ranking itself, so one probe can never fan out into a
// cluster-wide recursion. A job still in flight is not an answer.
func (s *Server) handleClusterResult(w http.ResponseWriter, r *http.Request) {
	a, b := r.PathValue("a"), r.PathValue("b")
	if !store.ValidateID(a) || !store.ValidateID(b) {
		s.fail(w, http.StatusBadRequest, errors.New("result probe needs two dataset IDs"))
		return
	}
	rec := peerRecorder(r)
	start := time.Now()
	_, e, _ := s.results.lookup(crossKey(a, b))
	rec.Add("serve_result", a[:12]+"/"+b[:12], start, time.Now())
	if e == nil {
		s.fail(w, http.StatusNotFound, errors.New("no cached result"))
		return
	}
	// Only the probe's own serving spans travel back: the cached report's
	// original compute trace belongs to a past job, not this call window.
	writeJSON(w, http.StatusOK, peerResult{resultEntry: *e, Trace: rec.Snapshot()})
}

// observeRemoteSpan times one cross-node leg (peer pull, remote cache probe)
// into the per-kind remote-span histogram.
func (s *Server) observeRemoteSpan(kind string, start time.Time) {
	s.reg.Histogram(metrics.Label("sccgd_cluster_remote_span_seconds", "kind", kind)).ObserveSince(start)
}

// recordPull appends a query-log record for one peer pull attempt.
func (s *Server) recordPull(rec *trace.Recorder, id string, res cluster.PullResult, dur time.Duration, err error) {
	if s.qlog == nil {
		return
	}
	qr := querylog.Record{
		Kind:       querylog.KindPull,
		ID:         id,
		TraceID:    rec.Context().TraceIDString(),
		Datasets:   []querylog.DatasetIO{{ID: id, Bytes: res.Bytes}},
		DurationMs: float64(dur.Microseconds()) / 1000,
		Outcome:    querylog.OutcomePulled,
		Peer:       res.Peer,
	}
	if man, ok := s.store.Get(id); ok {
		qr.Datasets[0].Tiles = len(man.Tiles)
	}
	if err != nil {
		qr.Outcome = querylog.OutcomeFailed
		qr.Error = err.Error()
	}
	s.qlog.Append(qr)
}

// ensureLocal makes every dataset resident in the local store, pulling
// missing ones from cluster peers (digest-verified on arrival). Each pull is
// recorded as two back-to-back spans that sum to it: `cluster` for the
// transfer (manifest and segment copy), with the serving peer's own spans
// spliced in beside it, then `verify` for syncing the copy beside checking
// and decoding its tiles, and publishing it. A query-log pull record lands either way. Without a
// cluster it is a no-op: absence surfaces through the usual not-found paths.
func (s *Server) ensureLocal(rec *trace.Recorder, ids ...string) error {
	if s.cluster == nil {
		return nil
	}
	for _, id := range ids {
		if _, ok := s.store.Get(id); ok {
			continue
		}
		start := time.Now()
		res, err := s.cluster.PullDatasetCtx(trace.WithContext(context.Background(), rec.Context()), id)
		end := time.Now()
		detail := "pull " + id[:12]
		if err != nil {
			detail += " failed"
		}
		copied := end.Add(-res.Verify)
		rec.Add("cluster", detail, start, copied)
		rec.Splice(res.Peer, res.Remote, start, copied)
		if res.Verify > 0 {
			rec.Add("verify", detail, copied, end)
		}
		s.observeRemoteSpan("pull", start)
		s.recordPull(rec, id, res, end.Sub(start), err)
		if err != nil {
			return err
		}
	}
	return nil
}

// remoteResult is the cluster-wide read-through layer beneath the local
// cache: ask the live peers, owner-ranked, whether one already holds the
// finished report for key. A hit is adopted into the local result store
// (best-effort; the liveness gate declines entries for datasets not held
// here) and served exactly like a persisted hit.
func (s *Server) remoteResult(key string) (submission, bool) {
	ids := keyDatasetIDs(key)
	if len(ids) == 0 {
		return submission{}, false // request-hash key: content unknown cluster-wide
	}
	a, b := ids[0], ids[len(ids)-1]
	rec := trace.NewRecorder()
	for _, hop := range s.cluster.Ranked(key) {
		if hop.Peer == nil {
			continue // this node's own layers already missed
		}
		ctx, cancel := context.WithTimeout(trace.WithContext(context.Background(), rec.Context()), clusterResultTimeout)
		start := time.Now()
		var res peerResult
		err := s.cluster.GetJSON(ctx, hop.Peer, "/internal/results/"+a+"/"+b, &res, maxClusterResultBytes)
		cancel()
		end := time.Now()
		if err != nil {
			continue // miss or peer failure; a lower-ranked peer may still answer
		}
		e, _, err := s.results.adopt(res.resultEntry, key)
		if err != nil {
			s.log.Warn("discarding invalid peer result", "peer", hop.Addr, "err", err)
			continue
		}
		rec.Add("cluster", "remote result "+a[:12], start, end)
		rec.Splice(hop.Addr, res.Trace, start, end)
		s.observeRemoteSpan("remote_result", start)
		s.cacheHits.Inc()
		s.remoteHits.Inc()
		sub := entrySubmission(e, querylog.OutcomeCluster)
		sub.resp.Trace = rec.Snapshot()
		sub.peer = hop.Addr
		return sub, true
	}
	return submission{}, false
}
