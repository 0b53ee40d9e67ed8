// Package querylog persists an append-only, rotation-bounded JSONL record
// of everything the daemon actually did with data — jobs (matrix cells
// included), ingests, and peer pulls.
//
// The log is the instrument ROADMAP's workload-adaptive storage direction
// consumes: which datasets are queried together, and whether answers came
// from compute, cache, or a peer.
// Every line is a self-describing JSON object tagged "sccg-qlog/1"; corrupt
// or truncated lines (a crash mid-append) are skipped with a counted reason,
// never an error for the whole log.
package querylog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Schema tags every record line. Bump on any incompatible field change.
const Schema = "sccg-qlog/1"

// Record kinds.
const (
	KindJob    = "job"
	KindIngest = "ingest"
	KindPull   = "pull"
)

// Outcomes. Jobs: computed, cached (live LRU), cached_persisted
// (disk), cached_cluster (adopted from a peer), failed. Ingests: ingested,
// failed. Pulls: pulled, failed.
const (
	OutcomeComputed  = "computed"
	OutcomeCached    = "cached"
	OutcomePersisted = "cached_persisted"
	OutcomeCluster   = "cached_cluster"
	OutcomeIngested  = "ingested"
	OutcomePulled    = "pulled"
	OutcomeFailed    = "failed"
)

// DatasetIO names one dataset a record touched with the tiles and bytes it
// covered. For compute records the numbers come from the manifest (what the
// job read); cache hits read nothing and report zero.
type DatasetIO struct {
	ID    string `json:"id"`
	Tiles int    `json:"tiles,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
}

// Record is one line of the query log.
type Record struct {
	Schema     string      `json:"schema"`
	Time       string      `json:"time"` // RFC3339Nano, UTC
	Kind       string      `json:"kind"`
	ID         string      `json:"id,omitempty"` // job ID, cell "i,j", etc.
	TraceID    string      `json:"trace_id,omitempty"`
	Tenant     string      `json:"tenant,omitempty"` // accounting identity that issued the work
	Band       string      `json:"band,omitempty"`   // QoS band the work ran under
	Datasets   []DatasetIO `json:"datasets,omitempty"`
	DurationMs float64     `json:"duration_ms"`
	Outcome    string      `json:"outcome"`
	Peer       string      `json:"peer,omitempty"` // remote node involved, if any
	Error      string      `json:"error,omitempty"`
}

// Decode skip reasons, as counted by Query and the metrics surface.
const (
	SkipBadJSON   = "bad_json"
	SkipBadSchema = "bad_schema"
	SkipBadRecord = "bad_record"
)

var (
	errSchema = errors.New("querylog: schema mismatch")
	errRecord = errors.New("querylog: incomplete record")
)

// DecodeRecord parses one JSONL line. It never panics (FuzzQuerylogRecord
// holds it to that) and classifies failures so callers can count them:
// malformed JSON, a foreign/missing schema tag, or a structurally empty
// record (no kind/outcome — e.g. a torn line that still parses as JSON).
// Unknown fields are tolerated — the schema tag, not the field set, is the
// compatibility contract.
func DecodeRecord(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, fmt.Errorf("querylog: %w", err)
	}
	if r.Schema != Schema {
		return Record{}, errSchema
	}
	if r.Kind == "" || r.Outcome == "" {
		return Record{}, errRecord
	}
	return r, nil
}

// SkipReason folds a DecodeRecord error into its counter bucket.
func SkipReason(err error) string {
	switch {
	case errors.Is(err, errSchema):
		return SkipBadSchema
	case errors.Is(err, errRecord):
		return SkipBadRecord
	default:
		return SkipBadJSON
	}
}

const (
	activeFile  = "querylog.jsonl"
	rotatedFile = "querylog.1.jsonl"
	// DefaultMaxBytes bounds the two generations together at 64 MiB.
	DefaultMaxBytes = 64 << 20
)

// Log is the append side plus the query read side. Safe for concurrent
// use; appends are serialized under one mutex (each append is a single
// buffered write + newline, cheap next to the work being recorded).
type Log struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	f        *os.File
	size     int64

	appended  int64
	writeErrs int64
}

// Open opens (creating if needed) the log rooted at dir. maxBytes bounds the
// on-disk size across the active and one rotated generation; <= 0 uses
// DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("querylog: create %s: %w", dir, err)
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	f, err := os.OpenFile(filepath.Join(dir, activeFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("querylog: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("querylog: stat: %w", err)
	}
	return &Log{dir: dir, maxBytes: maxBytes, f: f, size: st.Size()}, nil
}

// Append writes one record, stamping schema and (when empty) time. Write
// failures are counted and swallowed: the query log must never take down
// the operation it is describing.
func (l *Log) Append(r Record) {
	if l == nil {
		return
	}
	r.Schema = Schema
	if r.Time == "" {
		r.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(r)
	if err != nil {
		l.mu.Lock()
		l.writeErrs++
		l.mu.Unlock()
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.size+int64(len(line)) > l.maxBytes/2 {
		l.rotateLocked()
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil {
		l.writeErrs++
		return
	}
	l.appended++
}

// rotateLocked promotes the active file to the single rotated generation
// (replacing any previous one) and starts a fresh active file. On rename or
// reopen failure the current file is kept — the log degrades to unbounded
// growth of one file rather than losing the append path.
func (l *Log) rotateLocked() {
	active := filepath.Join(l.dir, activeFile)
	if err := l.f.Sync(); err != nil {
		l.writeErrs++
	}
	if err := os.Rename(active, filepath.Join(l.dir, rotatedFile)); err != nil {
		l.writeErrs++
		return
	}
	nf, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The old handle still points at the rotated file; keep appending
		// there so records are not lost.
		l.writeErrs++
		return
	}
	l.f.Close()
	l.f = nf
	l.size = 0
}

// Appended returns the count of records successfully written this process.
func (l *Log) Appended() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// WriteErrors returns the count of swallowed append/rotate failures.
func (l *Log) WriteErrors() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeErrs
}

// Filter selects records for Query. Zero values match everything.
type Filter struct {
	Since   time.Time // inclusive
	Until   time.Time // exclusive
	Dataset string    // any record touching this dataset ID
	Outcome string
	Kind    string
	Tenant  string
	Limit   int // most recent N after filtering; <= 0 means all
}

// QueryResult carries the matched records (oldest first) and the per-reason
// counts of lines that could not be decoded.
type QueryResult struct {
	Records []Record
	Skipped map[string]int64
}

// Query scans the rotated then the active generation, oldest first. The
// scan reads files that Append may be writing concurrently; a torn final
// line decodes as bad_json and is counted, matching crash-recovery reads.
func (l *Log) Query(f Filter) (QueryResult, error) {
	if l == nil {
		return QueryResult{Skipped: map[string]int64{}}, nil
	}
	res := QueryResult{Skipped: make(map[string]int64)}
	for _, name := range []string{rotatedFile, activeFile} {
		if err := l.scanFile(filepath.Join(l.dir, name), f, &res); err != nil {
			return res, err
		}
	}
	if f.Limit > 0 && len(res.Records) > f.Limit {
		res.Records = res.Records[len(res.Records)-f.Limit:]
	}
	return res, nil
}

func (l *Log) scanFile(path string, f Filter, res *QueryResult) error {
	file, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("querylog: %w", err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		r, err := DecodeRecord(line)
		if err != nil {
			res.Skipped[SkipReason(err)]++
			continue
		}
		if matches(r, f) {
			res.Records = append(res.Records, r)
		}
	}
	if err := sc.Err(); err != nil {
		// An oversized line is corruption, not a query failure.
		res.Skipped[SkipBadJSON]++
	}
	return nil
}

func matches(r Record, f Filter) bool {
	if f.Kind != "" && r.Kind != f.Kind {
		return false
	}
	if f.Outcome != "" && r.Outcome != f.Outcome {
		return false
	}
	if f.Tenant != "" && r.Tenant != f.Tenant {
		return false
	}
	if f.Dataset != "" {
		found := false
		for _, d := range r.Datasets {
			if d.ID == f.Dataset || strings.HasPrefix(d.ID, f.Dataset) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if !f.Since.IsZero() || !f.Until.IsZero() {
		t, err := time.Parse(time.RFC3339Nano, r.Time)
		if err != nil {
			return false
		}
		if !f.Since.IsZero() && t.Before(f.Since) {
			return false
		}
		if !f.Until.IsZero() && !t.Before(f.Until) {
			return false
		}
	}
	return true
}

// Close closes the active file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
