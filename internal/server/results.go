package server

// The result store: the one owner of "is this comparison already known?".
// It answers from ordered tiers under a single mutex:
//
//   - live: an LRU from result key to the job that computed — or is still
//     computing — it. Serving the job rather than a copied report gives
//     single-flight for free: a duplicate submission arriving mid-run
//     attaches to the in-flight job instead of recomputing.
//   - durable: result key → finished entry, written through to one JSON file
//     per entry under <data-dir>/cache/ and reloaded on boot, so a restarted
//     daemon answers repeat jobs and matrix cells without recompute.
//   - aliases: which stored dataset a generated spec/corpus request
//     materialized into, so repeats of the spec resolve to the content key
//     without regenerating anything.
//
// Nothing enters the durable tier — a job's own report, a peer's answer, a
// file found at boot — without passing validate, which re-folds the report's
// per-tile ratio partials in canonical order and requires the fold to
// reproduce the stored aggregate exactly: the invariant that makes sharded
// execution bit-deterministic also makes a torn, tampered or lying entry
// detectable. A rejected entry is skipped with a logged reason, never served.

import (
	"container/list"
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

	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/trace"
)

// maxAliases bounds the spec-alias map. Past it an arbitrary alias goes; the
// spec it named re-materializes (deduplicated by the store) on its next use.
const maxAliases = 1024

// resultEntry is one finished comparison: the durable tier's on-disk record
// and, embedded in peerResult, the form peers exchange.
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
// files, plus how the serving node came by it.
type peerResult struct {
	resultEntry
	Cached bool `json:"cached,omitempty"`
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
// (uploads, storeless spec jobs).
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

// liveEntry is one live-tier slot. cross rides along so a finished job's
// answer is a complete entry without asking the server for its metadata.
type liveEntry struct {
	key   string
	jobID string
	cross *CrossPayload
}

// durableSlot is one durable-tier slot: the immutable entry plus in-process
// recency for the entry cap, which boot seeds from the entry's Saved time.
type durableSlot struct {
	entry *resultEntry
	used  time.Time
}

// resultStore is the store the file comment describes.
type resultStore struct {
	liveCap int          // live-tier capacity; non-positive disables the tier
	dir     string       // the durable tier's entry files; "" = no durable tier
	max     int          // durable entry cap; 0 = unbounded
	ds      *store.Store // dataset liveness and retention clocks; nil without a store
	job     func(id string) (sched.JobStatus, bool)
	log     *slog.Logger

	mu      sync.Mutex
	order   *list.List // live tier, front = most recently used
	live    map[string]*list.Element
	durable map[string]*durableSlot
	aliases map[string]string // spec request hash → dataset ID
}

// newResultStore creates the store. The durable tier exists when there is a
// dataset store to live beside and caching is on (liveCap > 0); its files are
// loaded here, before the store is shared.
func newResultStore(liveCap, maxEntries int, ds *store.Store, job func(string) (sched.JobStatus, bool), log *slog.Logger) *resultStore {
	rs := &resultStore{
		liveCap: liveCap, max: maxEntries, ds: ds, job: job, log: log,
		order:   list.New(),
		live:    make(map[string]*list.Element),
		durable: make(map[string]*durableSlot),
		aliases: make(map[string]string),
	}
	if ds != nil && liveCap > 0 {
		rs.load(filepath.Join(ds.Dir(), "cache"))
	}
	return rs
}

// persistent reports whether finished results survive a restart.
func (rs *resultStore) persistent() bool { return rs.dir != "" }

// load indexes the entry files under dir (creating it if needed). A file that
// fails validation, or whose key does not hash to its name, is skipped with a
// logged reason. A file referencing a dataset the store no longer holds is
// removed — a crash can land between a dataset delete and its cascade, and a
// restart must not resurrect the report. The entry cap is enforced only
// afterwards, so such orphans never hold cap slots at the expense of live
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
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(dir, name)
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
	rs.enforceLocked(rs.max)
}

// admitLocked indexes e in the durable tier unless a dataset its key
// references is gone. Callers hold mu — the lock dropDataset takes — so an
// entry racing a dataset delete can never land behind the cascade: if the
// delete committed first the gate sees the dataset gone; if the entry won,
// the cascade drops it.
func (rs *resultStore) admitLocked(e *resultEntry, used time.Time) bool {
	for _, id := range keyDatasetIDs(e.Key) {
		if _, ok := rs.ds.Get(id); !ok {
			return false
		}
	}
	rs.durable[e.Key] = &durableSlot{entry: e, used: used}
	return true
}

// lookup answers key from the live tier, then the durable tier. A live-tier
// hit returns job — the job that computed, or is still computing, the key —
// and e is nil only while that job is in flight; a durable hit leaves job
// zero. A live slot whose job failed, was canceled or vanished is evicted on
// the way, so the caller recomputes. A hit is a use of the key's datasets:
// their retention clocks advance, so repeatedly-hit content never
// TTL-expires out from under its own result.
func (rs *resultStore) lookup(key string) (job sched.JobStatus, e *resultEntry, ok bool) {
	var le liveEntry
	rs.mu.Lock()
	if el, live := rs.live[key]; live {
		rs.order.MoveToFront(el)
		le = *el.Value.(*liveEntry)
	}
	rs.mu.Unlock()

	if le.jobID != "" {
		st, known := rs.job(le.jobID)
		switch {
		case known && st.State == sched.Done:
			job, ok = st, true
			e = &resultEntry{Key: key, Name: st.Name, Cross: le.cross, Saved: st.Finished.UTC(), Report: st.Report}
		case known && !st.State.Terminal():
			job, ok = st, true
		default:
			rs.mu.Lock()
			if el, live := rs.live[key]; live && el.Value.(*liveEntry).jobID == le.jobID {
				rs.order.Remove(el)
				delete(rs.live, key)
			}
			rs.mu.Unlock()
		}
	}
	if !ok {
		rs.mu.Lock()
		if slot, durable := rs.durable[key]; durable {
			slot.used = time.Now()
			e, ok = slot.entry, true
		}
		rs.mu.Unlock()
	}
	if ok {
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

// record notes that jobID is computing key, evicting the least recently used
// live slot when over capacity.
func (rs *resultStore) record(key, jobID string, cross *CrossPayload) {
	if rs.liveCap <= 0 {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if el, ok := rs.live[key]; ok {
		rs.order.Remove(el)
	}
	rs.live[key] = rs.order.PushFront(&liveEntry{key: key, jobID: jobID, cross: cross})
	for rs.order.Len() > rs.liveCap {
		last := rs.order.Back()
		rs.order.Remove(last)
		delete(rs.live, last.Value.(*liveEntry).key)
	}
}

// adopt is how a finished result — a local job's report or a peer's answer —
// enters the store: it must carry wantKey and pass validate, exactly like a
// file found at boot. The returned entry is servable; the error means
// rejected. Adoption is a use of the key's datasets (see lookup).
//
// With a durable tier the entry is indexed (unless admitLocked declines it)
// and written to disk atomically — temp file, fsync, rename. The write runs
// outside the lock, since lookups must not stall behind an fsync; that is
// safe because two writers of one key hold bit-identical reports (the key is
// a content address), so either rename wins harmlessly. A failed write is
// logged, not returned: the entry still serves this process, it just will
// not survive a restart.
func (rs *resultStore) adopt(e resultEntry, wantKey string) (*resultEntry, error) {
	if e.Key != wantKey {
		return nil, errors.New("result carries the key of a different comparison")
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	rs.touch(e.Key)
	if rs.dir == "" {
		return &e, nil
	}
	raw, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode cache entry: %w", err)
	}
	rs.mu.Lock()
	admitted := rs.admitLocked(&e, time.Now())
	rs.enforceLocked(rs.max)
	rs.mu.Unlock()
	if !admitted {
		return &e, nil // its dataset is gone; nothing to keep
	}
	path := filepath.Join(rs.dir, entryFile(e.Key))
	if err := writeFileSynced(rs.dir, path, raw); err != nil {
		rs.log.Warn("persist result failed", "name", e.Name, "err", err)
		return &e, nil
	}
	// Reconcile: the key may have been dropped (delete cascade, clear, cap
	// eviction) while the bytes were in flight, in which case the rename just
	// orphaned a file the index no longer tracks — remove it. A *replaced*
	// entry (another adopt of the same key) is left alone: the file bytes
	// serve the new entry exactly.
	rs.mu.Lock()
	if _, ok := rs.durable[e.Key]; !ok {
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

// removeLocked drops one durable entry from the index and from disk.
func (rs *resultStore) removeLocked(key string) {
	delete(rs.durable, key)
	os.Remove(filepath.Join(rs.dir, entryFile(key)))
}

// enforceLocked evicts least-recently-used durable entries until at most max
// remain (0 = unbounded), returning how many were dropped.
func (rs *resultStore) enforceLocked(max int) int {
	over := len(rs.durable) - max
	if max <= 0 || over <= 0 {
		return 0
	}
	keys := make([]string, 0, len(rs.durable))
	for k := range rs.durable {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ui, uj := rs.durable[keys[i]].used, rs.durable[keys[j]].used
		if !ui.Equal(uj) {
			return ui.Before(uj)
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys[:over] {
		rs.removeLocked(k)
	}
	return over
}

// EnforceLimit evicts least-recently-used durable entries beyond max. It is
// the retention engine's cache hook (see retention.Cache).
func (rs *resultStore) EnforceLimit(max int) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.enforceLocked(max)
}

// dropDataset is the delete cascade: every live slot and durable entry whose
// key references the dataset — its own result and every cross result it
// participates in — and every alias resolving to it go, under one lock, so a
// deleted dataset's results are never served again and a re-submitted spec
// falls back to re-materialization. It returns how many went.
func (rs *resultStore) dropDataset(id string) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for key, el := range rs.live {
		if keyReferences(key, id) {
			rs.order.Remove(el)
			delete(rs.live, key)
			n++
		}
	}
	for key := range rs.durable {
		if keyReferences(key, id) {
			rs.removeLocked(key)
			n++
		}
	}
	for spec, ds := range rs.aliases {
		if ds == id {
			delete(rs.aliases, spec)
			n++
		}
	}
	return n
}

// clear empties the live and durable tiers (entry files included), returning
// how many each held. Aliases stay: they point at live datasets, and dataset
// deletion is what invalidates them.
func (rs *resultStore) clear() (live, durable int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	live, durable = len(rs.live), len(rs.durable)
	rs.order.Init()
	rs.live = make(map[string]*list.Element)
	for key := range rs.durable {
		rs.removeLocked(key)
	}
	return live, durable
}

// counts returns the live and durable entry counts.
func (rs *resultStore) counts() (live, durable int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.live), len(rs.durable)
}

// alias returns the dataset a spec request hash materialized into.
func (rs *resultStore) alias(spec string) (string, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	id, ok := rs.aliases[spec]
	return id, ok
}

// setAlias remembers that the spec request hash materialized into dataset id.
func (rs *resultStore) setAlias(spec, id string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.aliases[spec]; !ok && len(rs.aliases) >= maxAliases {
		for victim := range rs.aliases {
			delete(rs.aliases, victim)
			break
		}
	}
	rs.aliases[spec] = id
}
