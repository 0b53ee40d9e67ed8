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
//     (with a store) to one JSON file per entry under
//     <data-dir>/cache/ and reloaded on boot, so a restarted daemon answers
//     repeat jobs and matrix cells without recompute. A slot with an entry
//     and no live job answers cached-<12 hex>.
//
// No entry enters the table — a job's own report, a peer's answer, a
// file found at boot — without passing validate, which re-folds the report's
// per-tile ratio partials in canonical order and requires the fold to
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
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/trace"
)

// resultEntry is one finished comparison: a slot's on-disk record and,
// embedded in peerResult, the form peers exchange.
type resultEntry struct {
	// Key is the result key (content-hash derived). The entry's file name is
	// the SHA-256 of this key, and boot rejects a file whose key does not
	// hash back to its name.
	Key    string          `json:"key"`
	Name   string          `json:"name,omitempty"`
	Cross  *CrossPayload   `json:"cross,omitempty"`
	Saved  time.Time       `json:"saved"`
	Report pipeline.Result `json:"report"`
}

// peerResult is the wire form of a comparison exchanged between peers: the
// entry itself, so the receiver holds it to the standard of its own disk
// files, plus the serving node's spans.
type peerResult struct {
	resultEntry
	// Trace carries the serving node's spans for splicing into the caller's
	// picture. A trace is observability, never trusted data.
	Trace *trace.Trace `json:"trace,omitempty"`
}

// validate rejects reports the pipeline cannot have produced: the per-tile
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

// entryFile names the file holding key's entry.
func entryFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
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
	jobID string
	entry *resultEntry
	used  time.Time
}

// resultStore is the table the file comment describes.
type resultStore struct {
	dir     string       // the entry files; "" = results do not survive a restart
	max     int          // slot bound; 0 = unbounded
	ds      *store.Store // dataset liveness and retention clocks; nil without a store
	job     func(id string) (sched.JobStatus, bool)
	evicted *metrics.Counter // slots the bound evicted
	log     *slog.Logger

	mu    sync.Mutex
	slots map[string]*resultSlot
}

// newResultStore creates the table, bounded to maxEntries slots. With a
// dataset store to live beside, its entry files are loaded here, before the
// table is shared.
func newResultStore(maxEntries int, ds *store.Store, job func(string) (sched.JobStatus, bool), evicted *metrics.Counter, log *slog.Logger) *resultStore {
	rs := &resultStore{
		max: maxEntries, ds: ds, job: job, evicted: evicted, log: log,
		slots: make(map[string]*resultSlot),
	}
	if ds != nil {
		rs.load(filepath.Join(ds.Dir(), "cache"))
	}
	return rs
}

// persistent reports whether finished results survive a restart.
func (rs *resultStore) persistent() bool { return rs.dir != "" }

// load indexes the entry files under dir (creating it if needed) and removes
// the tmp-* files a crash left between writeFileSynced's create and rename;
// nothing else writes there before the table is shared. A file that
// fails validation, or whose key does not hash to its name, is skipped with a
// logged reason. A file referencing a dataset the store no longer holds is
// removed — a crash can land between a dataset delete and its cascade, and a
// restart must not resurrect the report. The bound is enforced only
// afterwards, so such orphans never hold slots at the expense of live
// entries.
func (rs *resultStore) load(dir string) {
	des, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		rs.log.Warn("persisted results disabled", "err", err)
		return
	}
	rs.dir = dir
	rs.mu.Lock()
	defer rs.mu.Unlock()
	orphans := 0
	for _, de := range des {
		name := de.Name()
		path := filepath.Join(dir, name)
		if !de.IsDir() && strings.HasPrefix(name, "tmp-") {
			os.Remove(path)
			continue
		}
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		var e resultEntry
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &e)
		}
		if err == nil {
			err = e.validate()
		}
		if err == nil && entryFile(e.Key) != name {
			err = errors.New("key does not hash to its file name")
		}
		if err != nil {
			rs.log.Warn("skipped persisted result", "err", fmt.Errorf("cache entry %s: %w", name, err))
			continue
		}
		if !rs.admitLocked(&e, e.Saved) {
			os.Remove(path)
			orphans++
		}
	}
	if orphans > 0 {
		rs.log.Info("dropped persisted results referencing deleted datasets", "count", orphans)
	}
	rs.enforceLocked()
}

// admitLocked puts e in its key's slot unless a dataset the key references
// is gone. Callers hold mu — the lock dropDataset takes — so an entry racing
// a dataset delete can never land behind the cascade: if the delete
// committed first the gate sees the dataset gone; if the entry won, the
// cascade drops it.
func (rs *resultStore) admitLocked(e *resultEntry, used time.Time) bool {
	for _, id := range keyDatasetIDs(e.Key) {
		if _, ok := rs.ds.Get(id); !ok {
			return false
		}
	}
	slot := rs.slotLocked(e.Key)
	slot.entry, slot.used = e, used
	return true
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
	if rs.ds == nil {
		return
	}
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
// file found at boot. The returned entry is servable; the error means
// rejected. Adoption is a use of the key's datasets (see lookup).
//
// The entry fills its slot (unless admitLocked declines it). When results
// are persistent it is also written to disk atomically — temp file, fsync,
// rename. The write runs outside the lock, since lookups must not stall
// behind an fsync; that is safe because two writers of one key hold
// bit-identical reports (the key is a content address), so either rename
// wins harmlessly. A failed write is logged, not returned: the entry still
// serves this process, it just will not survive a restart.
func (rs *resultStore) adopt(e resultEntry, wantKey string) (*resultEntry, error) {
	if e.Key != wantKey {
		return nil, errors.New("result carries the key of a different comparison")
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	rs.touch(e.Key)
	raw, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode cache entry: %w", err)
	}
	rs.mu.Lock()
	admitted := rs.admitLocked(&e, time.Now())
	rs.enforceLocked()
	rs.mu.Unlock()
	if !admitted || rs.dir == "" {
		return &e, nil // its dataset is gone, or there is no disk to write to
	}
	path := filepath.Join(rs.dir, entryFile(e.Key))
	if err := writeFileSynced(rs.dir, path, raw); err != nil {
		rs.log.Warn("persist result failed", "name", e.Name, "err", err)
		return &e, nil
	}
	// Reconcile: the entry may have been dropped (delete cascade, clear,
	// eviction) while the bytes were in flight, in which case the rename just
	// orphaned a file the table no longer tracks — remove it. A *replaced*
	// entry (another adopt of the same key) is left alone: the file bytes
	// serve the new entry exactly.
	rs.mu.Lock()
	if slot := rs.slots[e.Key]; slot == nil || slot.entry == nil {
		os.Remove(path)
	}
	rs.mu.Unlock()
	return &e, nil
}

// writeFileSynced writes raw to path via a fsynced temp file in dir.
func writeFileSynced(dir, path string, raw []byte) error {
	f, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(raw); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// removeLocked drops key's slot, and its entry file when it holds an entry.
func (rs *resultStore) removeLocked(key string) {
	if rs.dir != "" && rs.slots[key].entry != nil {
		os.Remove(filepath.Join(rs.dir, entryFile(key)))
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

// clear empties the table (entry files included), returning how many slots
// it held.
func (rs *resultStore) clear() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := len(rs.slots)
	for key := range rs.slots {
		rs.removeLocked(key)
	}
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
