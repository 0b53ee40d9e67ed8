package server

// HTTP read surface of the persisted query/access log (internal/querylog):
// GET /querylog serves filtered records from the JSONL generations. It
// answers 501 when the log is disabled (-querylog-max-bytes off) or failed
// to open.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/querylog"
)

// querylogDefaultLimit bounds an unfiltered GET /querylog: the log may hold
// tens of MiB of records and the endpoint is for inspection, not bulk
// export (raise ?limit= explicitly to page deeper).
const querylogDefaultLimit = 500

func (s *Server) handleQuerylog(w http.ResponseWriter, r *http.Request) {
	if s.qlog == nil {
		s.fail(w, http.StatusNotImplemented, errors.New("query log disabled"))
		return
	}
	q := r.URL.Query()
	f := querylog.Filter{
		Dataset: q.Get("dataset"),
		Outcome: q.Get("outcome"),
		Kind:    q.Get("kind"),
		Tenant:  q.Get("tenant"),
		Limit:   querylogDefaultLimit,
	}
	var err error
	if f.Since, err = timeParam(q.Get("since")); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("since: %w", err))
		return
	}
	if f.Until, err = timeParam(q.Get("until")); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("until: %w", err))
		return
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("limit %q is not a non-negative integer", v))
			return
		}
		f.Limit = n
	}
	res, err := s.qlog.Query(f)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	records := res.Records
	if records == nil {
		records = []querylog.Record{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"schema":  querylog.Schema,
		"records": records,
		"skipped": res.Skipped,
	})
}

// timeParam parses an RFC3339 query parameter; empty means unset.
func timeParam(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("%q is not an RFC3339 timestamp", v)
	}
	return t, nil
}
