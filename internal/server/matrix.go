package server

// K-way similarity matrix endpoints over the compare subsystem:
//
//	POST   /matrix       start a run:
//	                       {"datasets": ["<id>", ...]}          symmetric, or
//	                       {"set_a": [...], "set_b": [...]}     bipartite rows×cols
//	                     plus optional "name", and the progressive objectives
//	                     "top_k" (only the K highest cells need exact answers),
//	                     and "min_similarity" (cells provably below it are
//	                     skipped). Any other member is a 400.
//	GET    /matrix       list running runs plus the last 64 finished
//	GET    /matrix/{id}  poll one run (cell grid and its counts).
//	                       ?wait=1&since=N long-polls until the run's version
//	                       exceeds N (or the run finishes, or ~25s elapse).
//	DELETE /matrix/{id}  cancel a run (cancels its remaining member jobs)
//	GET    /matrix/{id}/cells/{i}/{j}
//	                     read one cell by grid coordinates; ?exact=1 lazily
//	                     upgrades an elided (skipped/bounded) cell to an exact
//	                     answer on demand and patches the run's status;
//	                     409 while the run itself still runs
//
// A run resolves each cell through the cache-aware job submission path
// (repeat content — including across daemon restarts, via the persisted
// cache — is never recomputed) and fans the rest out as scheduler jobs the
// run can cancel as one. Progressive runs first bound every cell from
// manifest stats and elide cells that cannot affect the answer; see
// internal/compare. The run pins all its datasets for its lifetime, so a
// retention sweep mid-run can never delete a dataset out from under a
// planned cell.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/compare"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// MatrixRequest starts a matrix run over stored datasets. It is the compare
// subsystem's run spec: one struct describes a run from the wire to the
// planner, and its Validate is the only request check.
type MatrixRequest = compare.RunSpec

// matrixIDs returns the distinct dataset IDs a request touches (set_a and
// set_b may overlap across sides).
func matrixIDs(req MatrixRequest) []string {
	seen := make(map[string]struct{})
	var ids []string
	for _, axis := range [][]string{req.Datasets, req.SetA, req.SetB} {
		for _, id := range axis {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// startMatrix validates and starts a matrix run; code carries the HTTP
// status on failure. Shared by the HTTP handler and SubmitMatrix.
//
// All the run's datasets are pinned here — all-or-nothing — and released in
// one batch when the run finalizes. Per-cell submissions pin again for the
// job's own lifetime; the run-level pins are what keep a dataset alive in
// the window between run start and its last cell's submission, which a
// retention sweep could otherwise hit.
func (s *Server) startMatrix(req MatrixRequest, who tenant.Quota) (run *compare.Run, code int, err error) {
	if err := req.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	ids := matrixIDs(req)
	// In clustered mode the coordinating node pulls every missing dataset up
	// front: pinning requires local presence, the plan phase bounds cells
	// from local manifests, and every cell the cluster has not answered
	// already computes here, on the bytes this pull brought. The pulls are
	// recorded and handed to the run as its plan prelude, so plan_trace
	// prices them next to the bound stage.
	rec := trace.NewRecorder()
	if err := s.ensureLocal(rec, ids...); err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, http.StatusNotFound, err
		}
		return nil, http.StatusBadGateway, err
	}
	rec.Finish()
	if err := s.pinDatasets(ids...); err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, http.StatusNotFound, err
		}
		return nil, http.StatusConflict, err
	}
	release := func() {
		for _, id := range ids {
			s.store.Unpin(id)
		}
	}
	req.Tenant, req.Prelude = who.Name, rec.Snapshot()
	run, err = s.matrix.StartSpec(req, release)
	if err != nil {
		release()
		return nil, http.StatusServiceUnavailable, err
	}
	s.matrixRuns.Inc()
	return run, http.StatusAccepted, nil
}

// SubmitMatrix starts a symmetric K-way matrix run over stored dataset IDs
// as the default tenant: all K·(K−1)/2 cells as one cancellable run,
// deduplicated through the result store. Poll with Matrix.
func (s *Server) SubmitMatrix(ids []string) (string, error) {
	return s.SubmitMatrixQuery(MatrixRequest{Datasets: ids})
}

// SubmitMatrixQuery validates and starts a matrix run from the full request
// form as the default tenant, returning the run ID: symmetric over Datasets
// or bipartite SetA×SetB, optionally progressive (TopK, MinSimilarity).
func (s *Server) SubmitMatrixQuery(req MatrixRequest) (string, error) {
	run, _, err := s.startMatrix(req, s.tenants.Resolve(""))
	if err != nil {
		return "", err
	}
	return run.ID(), nil
}

// Matrix returns a run's status snapshot.
func (s *Server) Matrix(id string) (compare.Status, bool) {
	run, ok := s.matrix.Get(id)
	if !ok {
		return compare.Status{}, false
	}
	return run.Status(), true
}

// WaitMatrix blocks until the run's version exceeds since (or the run is
// terminal, or ctx expires) and returns the fresh snapshot.
func (s *Server) WaitMatrix(ctx context.Context, id string, since int64) (compare.Status, bool) {
	run, ok := s.matrix.Get(id)
	if !ok {
		return compare.Status{}, false
	}
	st, _ := run.WaitChange(ctx, since)
	return st, true
}

// CancelMatrix cancels a run.
func (s *Server) CancelMatrix(id string) error {
	return s.matrix.Cancel(id)
}

func (s *Server) handleStartMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if err := s.decode(w, r, &req); err != nil {
		return
	}
	run, code, err := s.startMatrix(req, s.resolveTenant(r))
	if err != nil {
		s.fail(w, code, err)
		return
	}
	writeJSON(w, code, run.Status())
}

func (s *Server) handleListMatrices(w http.ResponseWriter, r *http.Request) {
	runs := s.matrix.Runs()
	out := make([]compare.Status, len(runs))
	for i, run := range runs {
		out[i] = run.Status()
	}
	compare.SortRunsByID(out)
	writeJSON(w, http.StatusOK, map[string]any{"matrices": out})
}

// matrixWaitTimeout bounds one long-poll round; clients re-poll with the
// returned version. Short of most proxy idle timeouts.
const matrixWaitTimeout = 25 * time.Second

func (s *Server) handleGetMatrix(w http.ResponseWriter, r *http.Request) {
	run, ok := s.matrix.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, compare.ErrNoRun)
		return
	}
	q := r.URL.Query()
	if q.Get("wait") != "1" {
		writeJSON(w, http.StatusOK, run.Status())
		return
	}
	since, err := strconv.ParseInt(q.Get("since"), 10, 64)
	if err != nil {
		// Absent or malformed ?since= long-polls for any change past the
		// current state the client has not seen: version 0 never blocks
		// after the plan phase, so default to "wait for the next change
		// from now".
		since = run.Status().Version
	}
	ctx, cancel := context.WithTimeout(r.Context(), matrixWaitTimeout)
	defer cancel()
	st, _ := run.WaitChange(ctx, since)
	writeJSON(w, http.StatusOK, st)
}

// handleMatrixCell reads one cell by grid coordinates. With ?exact=1 an
// elided (skipped/bounded) cell is recomputed exactly — through the same
// cache-aware submission path as planned cells, so a cluster or persisted
// cache hit still answers without a job — and the run's status is patched in
// place. The call blocks until the upgraded cell is terminal.
func (s *Server) handleMatrixCell(w http.ResponseWriter, r *http.Request) {
	run, ok := s.matrix.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, compare.ErrNoRun)
		return
	}
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("cell row %q is not an integer", r.PathValue("i")))
		return
	}
	j, err := strconv.Atoi(r.PathValue("j"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("cell column %q is not an integer", r.PathValue("j")))
		return
	}
	var view compare.CellView
	if r.URL.Query().Get("exact") == "1" {
		view, err = run.UpgradeCell(i, j)
	} else {
		view, err = run.Cell(i, j)
	}
	switch {
	case errors.Is(err, compare.ErrNoCell):
		s.fail(w, http.StatusNotFound, err)
		return
	case errors.Is(err, compare.ErrCellSelf),
		errors.Is(err, compare.ErrCellBusy),
		errors.Is(err, compare.ErrRunRunning),
		errors.Is(err, compare.ErrCellNotElided):
		s.fail(w, http.StatusConflict, err)
		return
	case errors.Is(err, store.ErrNotFound):
		s.fail(w, http.StatusNotFound, err)
		return
	case err != nil:
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": run.ID(), "i": i, "j": j, "cell": view,
	})
}

func (s *Server) handleCancelMatrix(w http.ResponseWriter, r *http.Request) {
	run, ok := s.matrix.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, compare.ErrNoRun)
		return
	}
	switch err := run.Cancel(); {
	case errors.Is(err, compare.ErrRunTerminal):
		s.fail(w, http.StatusConflict, err)
	case err != nil:
		s.fail(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, run.Status())
	}
}
