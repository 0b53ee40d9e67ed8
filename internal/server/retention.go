package server

// Retention surface: the admin endpoints and the plumbing that ties the
// retention engine into the request path.
//
//	POST   /gc      run one retention sweep now, report what it evicted
//	DELETE /cache   empty the result store
//
// Two invariants are enforced here rather than in the engine, so they hold
// for every delete path (HTTP DELETE, forced deletes, retention sweeps):
//
//   - Cascade: the store's delete hook routes through dropDatasetResults,
//     which has the result store drop everything referencing the dataset
//     (resultStore.dropDataset) — a deleted dataset's results are never
//     served again.
//   - Pinning: every store-backed job submission pins its datasets first
//     (Pin fails if the dataset is already gone, closing the race with a
//     concurrent sweep) and wraps the task source so the scheduler unpins
//     exactly once at the job's terminal state.

import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/compare"
	"repro/internal/retention"
	"repro/internal/sched"
	"repro/internal/store"
)

// dropDatasetResults is the store's delete hook: cascade a dataset removal
// through the result store so no path — DELETE /datasets, a forced delete,
// a retention eviction — leaves reports behind for data that no longer
// exists.
func (s *Server) dropDatasetResults(id string) {
	n := s.results.dropDataset(id)
	// Tenant attribution releases with the dataset: the owning tenant's
	// byte/dataset usage frees quota headroom the moment the delete lands.
	s.tusage.DropDataset(id)
	if n > 0 {
		s.cascades.Add(int64(n))
	}
}

// pinnedSource wraps a job's task source so its datasets stay pinned —
// immune to Delete and retention sweeps — until the scheduler releases the
// source at the job's terminal state. Release is idempotent because the
// server also calls it on paths where the source never reaches a job (a
// late cache hit, a submit failure).
type pinnedSource struct {
	sched.TaskSource
	st   *store.Store
	ids  []string
	once sync.Once
}

func (p *pinnedSource) Release() {
	p.once.Do(func() {
		for _, id := range p.ids {
			p.st.Unpin(id)
		}
	})
}

// pinDatasets pins every id; all must exist — a failure unwinds the pins
// already taken, so pins are held all-or-nothing.
func (s *Server) pinDatasets(ids ...string) error {
	for i, id := range ids {
		if err := s.store.Pin(id); err != nil {
			for _, held := range ids[:i] {
				s.store.Unpin(held)
			}
			return fmt.Errorf("dataset %s: %w", id, err)
		}
	}
	return nil
}

// wrapPinned wraps src so the already-held pins on ids release exactly once.
func wrapPinned(st *store.Store, src sched.TaskSource, ids ...string) sched.TaskSource {
	return &pinnedSource{TaskSource: src, st: st, ids: ids}
}

// openDatasetPinned pins a stored dataset and returns its task source; the
// pin is released at the job's terminal state (or by releaseSource when no
// job takes the source).
func (s *Server) openDatasetPinned(id string) (sched.TaskSource, *store.Manifest, error) {
	if err := s.pinDatasets(id); err != nil {
		return nil, nil, err
	}
	ds, err := s.store.OpenDataset(id)
	if err != nil {
		s.store.Unpin(id)
		return nil, nil, err
	}
	return wrapPinned(s.store, ds.Source(), id), ds.Manifest(), nil
}

// pairIDs lists the datasets a cross pair reads: one for a self-comparison.
func pairIDs(idA, idB string) []string {
	if idA == idB {
		return []string{idA}
	}
	return []string{idA, idB}
}

// openPairPinned pins the cross pair's datasets and opens the comparison
// over them.
func (s *Server) openPairPinned(idA, idB string) (name string, src sched.TaskSource, match compare.Match, self bool, err error) {
	ids := pairIDs(idA, idB)
	if err := s.pinDatasets(ids...); err != nil {
		return "", nil, compare.Match{}, false, err
	}
	name, csrc, match, self, err := compare.OpenPair(s.store, idA, idB)
	if err != nil {
		for _, id := range ids {
			s.store.Unpin(id)
		}
		return "", nil, match, false, err
	}
	return name, wrapPinned(s.store, csrc, ids...), match, self, nil
}

// SubmitStored queues a job over a stored dataset by content ID, bypassing
// HTTP and the result store: CompareStored(id, id).
func (s *Server) SubmitStored(id string) (string, error) {
	jobID, _, err := s.CompareStored(id, id)
	return jobID, err
}

// CompareStored queues an uncached job comparing stored dataset idA's set-A
// polygons against idB's set-B polygons over their shared tile keys,
// bypassing HTTP and the result store. The match says which tiles paired
// and which exist on only one side; idA == idB is the dataset's own job.
// Its datasets stay pinned until the job's terminal state, as for every job
// the HTTP surface submits.
func (s *Server) CompareStored(idA, idB string) (string, compare.Match, error) {
	name, src, match, self, err := s.openPairPinned(idA, idB)
	if err != nil {
		return "", match, err
	}
	opts := sched.JobOpts{Name: name}
	if !self {
		opts.Meta = crossPayload(idA, idB, match)
	}
	id, err := s.sched.SubmitJob(src, opts)
	if err != nil {
		releaseSource(src)
	}
	return id, match, err
}

// releaseSource releases a pinned source that will never reach (or never
// reached) a scheduler job.
func releaseSource(src sched.TaskSource) {
	if rel, ok := src.(sched.SourceReleaser); ok {
		rel.Release()
	}
}

// GC runs one retention sweep immediately.
func (s *Server) GC() retention.Sweep { return s.retention.Sweep() }

func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.GC())
}

// handleClearCache empties the result store.
func (s *Server) handleClearCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]int{"dropped": s.results.clear()})
}
