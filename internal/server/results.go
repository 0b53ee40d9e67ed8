package server

// The result store: the one owner of "is this comparison already known?".
// It is one table under one mutex, keyed by result key, with one recency
// rule and one bound (Options.CacheMaxEntries; past it the least recently
// used slot goes). A slot holds
//
//   - the job that computed — or is still computing — the key. Serving the
//     job rather than a copied report gives single-flight for free: a
//     duplicate submission arriving mid-run attaches to the in-flight job
//     instead of recomputing.
//   - the finished entry every cache-keyed done job leaves, written through
//     to the table's record log (internal/wal), <data-dir>/cache/results.log,
//     and replayed on boot, so a restarted daemon answers repeat jobs and
//     matrix cells without recompute. A slot with an entry and no live job
//     answers cached-<12 hex>. Drops and resets ride on the next commit: a
//     crash that loses one brings back entries that are still exact
//     answers, and boot's liveness gate keeps a deleted dataset's out.
//
// No entry enters the table — a job's own report, a peer's answer, a
// record replayed at boot — without passing validate, which re-folds the
// report's per-tile ratio partials in canonical order and requires the fold to
// reproduce the stored aggregate exactly: the invariant that makes sharded
// execution bit-deterministic also makes a torn, tampered or lying entry
// detectable. A rejected entry is skipped with a logged reason, never served.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/tilepass"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The results log's records.
const (
	recEntry = 'e' // an entry's compact JSON: the entry's key now holds it
	recDrop  = 'd' // a key: the key's entry is gone (eviction, delete cascade)
	recReset = 'r' // empty: every entry before it is gone (DELETE /cache)
)

// resultEntry is one finished comparison: a slot's log record and,
// embedded in peerResult, the form peers exchange.
type resultEntry struct {
	// Key is the result key (content-hash derived); a replayed record is
	// indexed under its own key.
	Key    string          `json:"key"`
	Name   string          `json:"name,omitempty"`
	Cross  *CrossPayload   `json:"cross,omitempty"`
	Saved  time.Time       `json:"saved"`
	Report tilepass.Result `json:"report"`
}

// peerResult is the wire form of a comparison exchanged between peers: the
// entry itself, so the receiver holds it to the standard of its own log
// records, plus the serving node's spans.
type peerResult struct {
	resultEntry
	// Trace carries the serving node's spans for splicing into the caller's
	// picture. A trace is observability, never trusted data.
	Trace *trace.Trace `json:"trace,omitempty"`
}

// validate rejects reports a tile fold cannot have produced: the per-tile
// partials must re-fold, in canonical order, to the stored aggregate exactly.
func (e *resultEntry) validate() error {
	if e.Key == "" {
		return errors.New("missing cache key")
	}
	r := &e.Report
	if math.IsNaN(r.Similarity) || math.IsInf(r.Similarity, 0) {
		return errors.New("similarity is not finite")
	}
	if r.Intersecting < 0 || r.Candidates < 0 || r.Intersecting > r.Candidates {
		return errors.New("pair counts are inconsistent")
	}
	if len(r.TileRatios) > 0 {
		var sum float64
		hits := 0
		for i, tr := range r.TileRatios {
			if i > 0 {
				prev := r.TileRatios[i-1]
				if tr.Image < prev.Image || (tr.Image == prev.Image && tr.Tile <= prev.Tile) {
					return errors.New("tile partials out of canonical order")
				}
			}
			sum += tr.RatioSum
			hits += tr.Intersecting
		}
		if hits != r.Intersecting {
			return fmt.Errorf("tile partials carry %d intersecting pairs, report says %d", hits, r.Intersecting)
		}
		if sum != r.RatioSum {
			return errors.New("tile partials do not fold to the report's ratio sum")
		}
	}
	if r.Intersecting > 0 {
		if r.Similarity != r.RatioSum/float64(r.Intersecting) {
			return errors.New("similarity does not equal ratio sum over intersecting pairs")
		}
	} else if r.Similarity != 0 {
		return errors.New("nonzero similarity with no intersecting pairs")
	}
	return nil
}

// cachedID is the response ID of key's entry answered with no live job: stable
// for the key, not pollable.
func cachedID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "cached-" + hex.EncodeToString(sum[:6])
}

// keyDatasetIDs returns the dataset content IDs a result key references: one
// for a single-dataset key, two for a cross key, none for request-hash keys
// (uploads).
func keyDatasetIDs(key string) []string {
	if rest, ok := strings.CutPrefix(key, "dataset\x00"); ok {
		return []string{rest}
	}
	if rest, ok := strings.CutPrefix(key, "cross\x00"); ok {
		if a, b, ok := strings.Cut(rest, "\x00"); ok {
			return []string{a, b}
		}
	}
	return nil
}

func keyReferences(key, id string) bool { return slices.Contains(keyDatasetIDs(key), id) }

// resultSlot is one key's row: the job that computed — or is still
// computing — the key, and the finished entry once one was adopted or loaded.
// A slot holds at least one of the two. used is in-process recency for the
// bound, which boot seeds from the entry's Saved time.
type resultSlot struct {
	jobID  string
	entry  *resultEntry
	used   time.Time
	logged int64 // framed bytes of entry's record in the log; 0 = none
}

// resultStore is the table the file comment describes.
type resultStore struct {
	wal     *wal.Log     // a log that failed to open refuses every append
	max     int          // slot bound; 0 = unbounded
	ds      *store.Store // dataset liveness and retention clocks
	job     func(id string) (sched.JobStatus, bool)
	evicted *metrics.Counter // slots the bound evicted
	log     *slog.Logger

	mu    sync.Mutex
	slots map[string]*resultSlot
}

// newResultStore creates the table, bounded to maxEntries slots, beside the
// dataset store ds. Its log is replayed here, before the table is shared.
func newResultStore(maxEntries int, ds *store.Store, job func(string) (sched.JobStatus, bool), evicted *metrics.Counter, log *slog.Logger) *resultStore {
	rs := &resultStore{
		max: maxEntries, ds: ds, job: job, evicted: evicted, log: log,
		slots: make(map[string]*resultSlot),
	}
	rs.load(filepath.Join(ds.Dir(), "cache"))
	return rs
}

// load replays the log under dir (creating both if needed). A record that
// fails its checksum, decoding or validate is skipped with a logged reason,
// and a torn tail is cut off. A replayed entry referencing a dataset the store
// no longer holds gets a drop record — a crash can land between a dataset
// delete and its cascade, and a restart must not resurrect the report. The
// bound is enforced only afterwards, so such orphans never hold slots at the
// expense of live entries. The per-entry *.json files of older daemons are
// removed; their keys recompute on demand. A log that cannot be opened
// leaves the table empty, and its finished entries serve this process only.
func (rs *resultStore) load(dir string) {
	if legacy, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(legacy) > 0 {
		for _, p := range legacy {
			os.Remove(p)
		}
		rs.log.Info("removed per-entry result files of an older version", "count", len(legacy))
	}
	var err error
	rs.wal, err = wal.Open(filepath.Join(dir, "results.log"), rs.applyRecord, func(off int64, err error) {
		rs.log.Warn("skipped persisted result", "offset", off, "err", err)
	})
	if err != nil {
		clear(rs.slots)
		rs.log.Warn("persisted results disabled", "err", err)
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	orphans := 0
	for key, slot := range rs.slots {
		rs.wal.Live += slot.logged
		if !rs.datasetsHeld(key) {
			rs.removeLocked(key)
			orphans++
		}
	}
	if orphans > 0 {
		rs.log.Info("dropped persisted results referencing deleted datasets", "count", orphans)
	}
	rs.enforceLocked()
	rs.compactLocked()
}

// applyRecord folds one replayed record into the table. An entry record
// must decode and pass validate, like every other way into the table.
func (rs *resultStore) applyRecord(kind byte, payload []byte, n int64) error {
	switch kind {
	case recEntry:
		e := new(resultEntry)
		if err := json.Unmarshal(payload, e); err != nil {
			return err
		}
		if err := e.validate(); err != nil {
			return fmt.Errorf("cache entry %q: %w", e.Key, err)
		}
		rs.slots[e.Key] = &resultSlot{entry: e, used: e.Saved, logged: n}
	case recDrop:
		delete(rs.slots, string(payload))
	case recReset:
		clear(rs.slots)
	default:
		return fmt.Errorf("unknown record kind %q", kind)
	}
	return nil
}

// datasetsHeld reports whether the store holds every dataset key references.
func (rs *resultStore) datasetsHeld(key string) bool {
	for _, id := range keyDatasetIDs(key) {
		if _, ok := rs.ds.Get(id); !ok {
			return false
		}
	}
	return true
}

// admitLocked puts e in its key's slot unless a dataset the key references
// is gone. Callers hold mu — the lock dropDataset takes — so an entry racing
// a dataset delete can never land behind the cascade: if the delete
// committed first the gate sees the dataset gone; if the entry won, the
// cascade drops it.
func (rs *resultStore) admitLocked(e *resultEntry, used time.Time) bool {
	if !rs.datasetsHeld(e.Key) {
		return false
	}
	slot := rs.slotLocked(e.Key)
	rs.chargeLocked(slot, 0) // a replaced entry's record is dead
	slot.entry, slot.used = e, used
	return true
}

// chargeLocked makes n the log bytes slot's entry keeps live.
func (rs *resultStore) chargeLocked(slot *resultSlot, n int64) {
	rs.wal.Live += n - slot.logged
	slot.logged = n
}

// logLocked appends rec to the log and returns the batch whose fsync carries
// it. A failed write is logged, not returned: the table still serves what it
// holds, it just will not survive a restart.
func (rs *resultStore) logLocked(rec []byte) *wal.Batch {
	b, err := rs.wal.Append(rec)
	if err != nil {
		rs.log.Warn("persist result failed", "err", err)
	}
	return b
}

// compactLocked rewrites the log to the table's live entry records once its
// dead bytes exceed both its live bytes and wal.CompactFloor.
func (rs *resultStore) compactLocked() {
	if !rs.wal.CompactDue() {
		return
	}
	var recs []byte
	sizes := make(map[*resultSlot]int64, len(rs.slots))
	for _, slot := range rs.slots {
		if slot.entry == nil {
			continue
		}
		raw, err := json.Marshal(slot.entry)
		if err != nil {
			rs.log.Warn("compact results log", "err", err)
			return
		}
		rec := wal.Frame(recEntry, raw)
		recs = append(recs, rec...)
		sizes[slot] = int64(len(rec))
	}
	if err := rs.wal.Rewrite(recs); err != nil {
		rs.log.Warn("compact results log", "err", err)
		return
	}
	for slot, n := range sizes {
		slot.logged = n
	}
}

// slotLocked returns key's slot, creating an empty one.
func (rs *resultStore) slotLocked(key string) *resultSlot {
	slot := rs.slots[key]
	if slot == nil {
		slot = &resultSlot{}
		rs.slots[key] = slot
	}
	return slot
}

// lookup answers key. A slot whose job the scheduler knows answers as that
// job — the one that computed, or is still computing, the key — and e is nil
// only while that job is in flight without an entry beside it. A job that
// failed, was canceled or was forgotten is cleared from its slot on the way
// (the slot goes too when it holds no entry), so the caller recomputes. A
// slot with an entry and no live job answers with the entry, job zero.
// A hit is a use of the key's datasets: their retention clocks advance, so
// repeatedly-hit content never TTL-expires out from under its own result.
func (rs *resultStore) lookup(key string) (job sched.JobStatus, e *resultEntry, ok bool) {
	var jobID string
	rs.mu.Lock()
	slot := rs.slots[key]
	if slot != nil {
		slot.used = time.Now()
		jobID, e = slot.jobID, slot.entry
	}
	rs.mu.Unlock()

	if jobID != "" {
		st, known := rs.job(jobID)
		switch {
		case known && st.State == sched.Done:
			// The bridge until the completion watcher adopts the report.
			job, ok = st, true
			cross, _ := st.Meta.(*CrossPayload)
			e = &resultEntry{Key: key, Name: st.Name, Cross: cross, Saved: st.Finished.UTC(), Report: st.Report}
		case known && !st.State.Terminal():
			job, ok = st, true
		default:
			rs.mu.Lock()
			e = nil
			if rs.slots[key] == slot && slot.jobID == jobID {
				slot.jobID = ""
				if slot.entry == nil {
					delete(rs.slots, key)
				}
				e = slot.entry
			}
			rs.mu.Unlock()
		}
	}
	if ok = ok || e != nil; ok {
		rs.touch(key)
	}
	return job, e, ok
}

// touch advances the retention clock of every dataset key references.
func (rs *resultStore) touch(key string) {
	for _, id := range keyDatasetIDs(key) {
		rs.ds.Touch(id)
	}
}

// record notes that jobID is computing key.
func (rs *resultStore) record(key, jobID string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	slot := rs.slotLocked(key)
	slot.jobID, slot.used = jobID, time.Now()
	rs.enforceLocked()
}

// adopt is how a finished result — a local job's report or a peer's answer —
// enters the store: it must carry wantKey and pass validate, exactly like a
// record replayed at boot. The returned entry is servable; the error means
// rejected. Adoption is a use of the key's datasets (see lookup).
//
// The entry fills its slot (unless admitLocked declines it), and its record
// is appended to the log under the same lock; adopt returns only once an
// fsync covering it has — waiting outside the lock, since lookups must not
// stall behind an fsync. carried is how many
// records that fsync carried; 0 when nothing was written. A failed write or
// fsync is logged, not returned: the entry still serves this process, it
// just may not survive a restart.
func (rs *resultStore) adopt(e resultEntry, wantKey string) (entry *resultEntry, carried int, err error) {
	if e.Key != wantKey {
		return nil, 0, errors.New("result carries the key of a different comparison")
	}
	if err := e.validate(); err != nil {
		return nil, 0, err
	}
	rs.touch(e.Key)
	raw, err := json.Marshal(&e)
	if err != nil {
		return nil, 0, fmt.Errorf("encode cache entry: %w", err)
	}
	rec := wal.Frame(recEntry, raw)
	var b *wal.Batch
	rs.mu.Lock()
	if rs.admitLocked(&e, time.Now()) {
		if b = rs.logLocked(rec); b != nil {
			rs.chargeLocked(rs.slots[e.Key], int64(len(rec)))
		}
	}
	rs.enforceLocked()
	rs.mu.Unlock()
	if b == nil {
		return &e, 0, nil // its dataset is gone, or the write failed
	}
	carried, err = rs.wal.Commit(b, func() {
		rs.mu.Lock()
		rs.compactLocked()
		rs.mu.Unlock()
	})
	if err != nil {
		rs.log.Warn("persist result failed", "name", e.Name, "err", err)
	}
	return &e, carried, nil
}

// removeLocked drops key's slot; the log gets a drop record when the slot
// held an entry.
func (rs *resultStore) removeLocked(key string) {
	if slot := rs.slots[key]; slot.entry != nil {
		rs.chargeLocked(slot, 0)
		rs.logLocked(wal.Frame(recDrop, []byte(key)))
	}
	delete(rs.slots, key)
}

// enforceLocked evicts least-recently-used slots until at most max remain,
// counting them in evicted.
func (rs *resultStore) enforceLocked() {
	over := len(rs.slots) - rs.max
	if rs.max <= 0 || over <= 0 {
		return
	}
	keys := make([]string, 0, len(rs.slots))
	for k := range rs.slots {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ui, uj := rs.slots[keys[i]].used, rs.slots[keys[j]].used
		if !ui.Equal(uj) {
			return ui.Before(uj)
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys[:over] {
		rs.removeLocked(k)
	}
	rs.evicted.Add(int64(over))
}

// dropDataset is the delete cascade: every slot whose key references the
// dataset — its own result and every cross result it participates in — goes,
// under one lock, so a deleted dataset's results are never served again. It
// returns how many went.
func (rs *resultStore) dropDataset(id string) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for key := range rs.slots {
		if keyReferences(key, id) {
			rs.removeLocked(key)
			n++
		}
	}
	return n
}

// clear empties the table, with one reset record in the log, returning how
// many slots it held.
func (rs *resultStore) clear() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := len(rs.slots)
	if n > 0 {
		rs.wal.Live = 0
		rs.logLocked(wal.Frame(recReset, nil))
	}
	clear(rs.slots)
	return n
}

// counts returns how many slots the table holds and how many of them hold an
// entry.
func (rs *resultStore) counts() (slots, entries int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, slot := range rs.slots {
		if slot.entry != nil {
			entries++
		}
	}
	return len(rs.slots), entries
}
