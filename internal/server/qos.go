package server

// Multi-tenant QoS glue: token-keyed tenant resolution on the public
// surface, and admission control that consults the retention engine before
// the daemon accepts bytes it cannot hold.
//
// Admission decisions are structured: the response body carries a stable
// machine-readable code next to the human-readable error, and every
// rejection lands in the sccgd_admission_rejected_total{reason} counter.
//
//	413 tenant_bytes      the tenant's byte quota cannot hold the dataset
//	413 tenant_datasets   the tenant's dataset-count quota is reached
//	413 store_full        the dataset cannot fit even after evicting every
//	                      unpinned dataset (it is bigger than the budget
//	                      minus pinned bytes) — retrying cannot help
//	429 store_busy        the dataset would fit, but a synchronous sweep
//	                      could not free enough right now (pins); retry
//	429 tenant_queue      the tenant's queued-job quota is reached

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/tenant"
)

// admissionError is a structured admission rejection: code is the stable
// machine-readable reason (also the metrics label), status the HTTP status.
type admissionError struct {
	status int
	code   string
	msg    string
}

func (e *admissionError) Error() string { return e.msg }

// resolveTenant maps a request to its tenant quota: `Authorization: Bearer
// <token>` or the X-Sccg-Token header on the public surface. Unknown and
// absent tokens resolve to the default tenant — multi-tenancy is opt-in,
// an unconfigured daemon treats everyone as one unlimited tenant.
func (s *Server) resolveTenant(r *http.Request) tenant.Quota {
	tok := r.Header.Get("X-Sccg-Token")
	if tok == "" {
		if auth := r.Header.Get("Authorization"); auth != "" {
			if rest, ok := strings.CutPrefix(auth, "Bearer "); ok {
				tok = strings.TrimSpace(rest)
			}
		}
	}
	return s.tenants.Resolve(tok)
}

// rejectAdmission counts and reports one structured admission rejection.
func (s *Server) rejectAdmission(who tenant.Quota, code string, status int, format string, args ...any) *admissionError {
	s.admissionRejected(code)
	return &admissionError{status: status, code: code,
		msg: fmt.Sprintf("tenant %s: ", who.Name) + fmt.Sprintf(format, args...)}
}

func (s *Server) admissionRejected(reason string) {
	s.reg.Counter(metrics.Label("sccgd_admission_rejected_total", "reason", reason)).Inc()
}

// admitTenantBytes enforces the tenant's byte and dataset-count quotas for
// an ingest of `need` more bytes. Exactly-at-quota is full: a tenant whose
// usage+need exceeds MaxBytes gets the 413 before any byte is committed.
func (s *Server) admitTenantBytes(who tenant.Quota, need int64) *admissionError {
	u := s.tusage.Usage(who.Name)
	if who.MaxBytes > 0 && u.Bytes+need > int64(who.MaxBytes) {
		return s.rejectAdmission(who, "tenant_bytes", http.StatusRequestEntityTooLarge,
			"ingesting %d bytes would exceed the %d-byte quota (%d in use)",
			need, int64(who.MaxBytes), u.Bytes)
	}
	if who.MaxDatasets > 0 && u.Datasets >= who.MaxDatasets {
		return s.rejectAdmission(who, "tenant_datasets", http.StatusRequestEntityTooLarge,
			"dataset quota of %d reached", who.MaxDatasets)
	}
	return nil
}

// admitStoreBytes enforces the store's global byte budget for an ingest of
// `need` more bytes, synchronously evicting (targeted: exactly the headroom
// needed) before deciding. Returns nil when the bytes may be written; a
// terminal 413 when the dataset cannot fit even after evicting everything
// unpinned; a retryable 429 when eviction was blocked (pins) right now.
func (s *Server) admitStoreBytes(who tenant.Quota, need int64) *admissionError {
	budget := s.retention.Policy().MaxBytes
	if budget <= 0 {
		return nil // unbounded store
	}
	if need > budget {
		return s.rejectAdmission(who, "store_full", http.StatusRequestEntityTooLarge,
			"dataset of %d bytes exceeds the store budget of %d bytes", need, budget)
	}
	if s.store.TotalBytes()+need <= budget {
		return nil
	}
	// Over budget with this dataset: evict exactly enough, synchronously,
	// before a byte lands — the budget is a guarantee, not a high-water mark.
	s.retention.SweepFor(need)
	if s.store.TotalBytes()+need <= budget {
		return nil
	}
	if need > budget-s.store.PinnedBytes() {
		// Even an empty (modulo pins) store could not hold it.
		return s.rejectAdmission(who, "store_full", http.StatusRequestEntityTooLarge,
			"dataset of %d bytes cannot fit: store budget %d with %d bytes pinned",
			need, budget, s.store.PinnedBytes())
	}
	return s.rejectAdmission(who, "store_busy", http.StatusTooManyRequests,
		"store at capacity and eviction is blocked by in-flight jobs; retry later")
}

// admitIngest runs the full admission pipeline for an ingest of `need`
// bytes: tenant quotas first (cheap, no side effects), then the global
// budget (may sweep).
func (s *Server) admitIngest(who tenant.Quota, need int64) *admissionError {
	if aerr := s.admitTenantBytes(who, need); aerr != nil {
		return aerr
	}
	return s.admitStoreBytes(who, need)
}

// failAdmission writes a structured admission rejection. 429s advise a
// retry; both shapes carry the machine-readable code and the tenant.
func (s *Server) failAdmission(w http.ResponseWriter, who tenant.Quota, aerr *admissionError) {
	if aerr.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "5")
	}
	writeJSON(w, aerr.status, map[string]string{
		"error":  aerr.msg,
		"code":   aerr.code,
		"tenant": who.Name,
	})
}

// bandFor picks a submission's QoS band: an explicit request band wins,
// otherwise the job is interactive. Matrix cells are batch (set explicitly
// by the cell submitter).
func bandFor(req JobRequest) (sched.Band, error) {
	if req.Band != "" {
		return sched.ParseBand(req.Band)
	}
	return sched.BandInteractive, nil
}

// submitErrorCode maps a scheduler submission error to its HTTP status.
func submitErrorCode(err error) int {
	switch {
	case errors.Is(err, sched.ErrTenantQueue):
		return http.StatusTooManyRequests
	case errors.Is(err, sched.ErrQueueFull), errors.Is(err, sched.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
