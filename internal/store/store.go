// Package store is the persistent, content-addressed dataset store behind
// the sccgd daemon: the substrate that turns the service from a
// benchmark-on-request toy into a system serving stored collections of
// segmented pathology boundaries (the paper's actual workload).
//
// A dataset is persisted as one append-only segment file of WKB-encoded
// polygons (reusing internal/wkb, the SDBMS baseline's serialized geometry
// format) plus a JSON manifest recording, per image tile, the byte
// offset/size and polygon count of each of the tile's two result sets. The
// dataset ID is the hex SHA-256 of the canonical tile content — per-tile
// digests folded in (image, tile) order — so the ID is stable across ingest
// order and text-formatting differences, identical polygon sets deduplicate
// to one copy, and a result cache keyed on the ID is exact by construction.
//
// Readers are lazy and per-tile: a scheduler worker holding a handle to a
// stored dataset reads only the byte ranges of the tile it took, never the
// whole segment file. Every read from disk re-verifies the tile's content digest
// and re-validates every WKB record; the Store keeps recently decoded sets in
// a byte-bounded cache keyed by that digest (decoded.go), so a cached set is
// the decode of bytes that verified. Ingestion is streaming and
// log-structured: tiles are appended to a temp segment as they arrive
// (LogBase-style raw appends), hashed incrementally, and the dataset
// directory is committed with one rename, so a crashed ingest leaves only a
// temp directory that the next Open sweeps away.
package store

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crypto/sha256"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/rtree"
	"repro/internal/wkb"
)

const (
	manifestFile = "manifest.json"
	segmentFile  = "segments.wkb"
	tmpPrefix    = "tmp-"
	// recLenBytes frames each polygon in a segment: a little-endian uint32
	// byte length precedes the WKB payload.
	recLenBytes = 4
)

// Errors returned by the store's public API.
var (
	ErrNotFound = errors.New("store: no such dataset")
	ErrEmpty    = errors.New("store: dataset has no tiles")
	// ErrDuplicateTile marks an ingest containing the same (image, tile)
	// twice — a client fault, unlike the I/O errors AddTile can also return.
	ErrDuplicateTile = errors.New("store: duplicate tile in ingest")
	// ErrPinned rejects deleting a dataset referenced by a queued or running
	// job. ForceDelete overrides; the retention sweeper never does.
	ErrPinned = errors.New("store: dataset is pinned by a queued or running job")
	// ErrDeleted marks tile reads against a dataset force-deleted while a job
	// still held its handle, so the job fails with a lifecycle error instead
	// of a raw segment I/O error.
	ErrDeleted = errors.New("store: dataset deleted during job")
)

var idPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidateID reports whether id is syntactically a dataset ID (the lowercase
// hex SHA-256 of the dataset's canonical tile content).
func ValidateID(id string) bool { return idPattern.MatchString(id) }

// SetStats summarises one tile's polygon set for query planning without
// decoding the segment: the set's covering MBR plus the smallest and largest
// polygon area (shoelace pixels). Like Manifest.Name, stats are metadata —
// they are not folded into the tile digest or the dataset ID — so datasets
// written before stats existed load fine and simply plan without them.
type SetStats struct {
	MBR     geom.MBR `json:"mbr"`
	MinArea int64    `json:"min_area"`
	MaxArea int64    `json:"max_area"`
}

// Valid reports whether the stats are internally consistent. Stats are not
// digest-protected, so planners must treat invalid ones as absent rather
// than derive bounds from them.
func (st *SetStats) Valid() bool {
	return st != nil && st.MinArea >= 0 && st.MinArea <= st.MaxArea &&
		(st.MaxArea == 0 || !st.MBR.IsEmpty())
}

// computeSetStats folds one polygon set's planning stats; nil for an empty
// set (no polygons means no pairs, which callers treat as bound zero).
func computeSetStats(polys []*geom.Polygon) *SetStats {
	if len(polys) == 0 {
		return nil
	}
	st := &SetStats{MBR: geom.EmptyMBR(), MinArea: math.MaxInt64}
	for _, p := range polys {
		st.MBR = st.MBR.Union(p.MBR())
		a := p.Area()
		if a < st.MinArea {
			st.MinArea = a
		}
		if a > st.MaxArea {
			st.MaxArea = a
		}
	}
	return st
}

// TileInfo locates one tile's two polygon sets inside the segment file.
type TileInfo struct {
	Image  string `json:"image"`
	Tile   int    `json:"tile"`
	OffA   int64  `json:"off_a"`
	LenA   int64  `json:"len_a"`
	CountA int    `json:"count_a"`
	OffB   int64  `json:"off_b"`
	LenB   int64  `json:"len_b"`
	CountB int    `json:"count_b"`
	// StatsA/StatsB summarise each set's geometry for the matrix planner's
	// cheap per-cell bounds; absent on datasets ingested before they
	// existed (and then the planner falls back to the trivial bound).
	StatsA *SetStats `json:"stats_a,omitempty"`
	StatsB *SetStats `json:"stats_b,omitempty"`
	// Digest is the hex SHA-256 of the tile's canonical content (identity
	// plus both sets' exact bytes, every variable-length field
	// length-prefixed so the encoding is injective). The dataset ID folds
	// these, and every read from disk re-verifies against it, so
	// size-preserving segment corruption cannot serve wrong polygons under a
	// content address; a cached set is the decode of bytes that verified.
	Digest string `json:"digest"`
	// sum is Digest's raw bytes, decoded once where the manifest is built or
	// validated: what reads compare against and key the decoded cache by.
	sum [sha256.Size]byte
}

// Bytes is the tile's total encoded segment size.
func (ti TileInfo) Bytes() int64 { return ti.LenA + ti.LenB }

// Manifest describes one stored dataset. Treat it as immutable once
// returned by the store.
type Manifest struct {
	// ID is the content address: hex SHA-256 over the per-tile digests in
	// canonical (image, tile) order.
	ID string `json:"id"`
	// Name is caller metadata (not part of the content hash).
	Name    string    `json:"name,omitempty"`
	Created time.Time `json:"created"`
	// LastUsed is the retention clock: the last time a job, cross comparison,
	// matrix cell, or tile read touched the dataset. Zero on datasets written
	// before last-use tracking existed; LastUse falls back to Created. Like
	// Name it is metadata, not part of the content hash.
	LastUsed     time.Time  `json:"last_used,omitempty"`
	SegmentBytes int64      `json:"segment_bytes"`
	Polygons     int64      `json:"polygons"`
	Tiles        []TileInfo `json:"tiles"`
}

// LastUse returns the dataset's retention timestamp: the recorded last use,
// or Created for datasets never touched since ingest.
func (m *Manifest) LastUse() time.Time {
	if m.LastUsed.IsZero() {
		return m.Created
	}
	return m.LastUsed
}

// DisplayName returns the dataset's name, falling back to a short
// content-ID tag for unnamed datasets. Job listings use it as the label.
func (m *Manifest) DisplayName() string {
	if m.Name != "" {
		return m.Name
	}
	return "dataset-" + m.ID[:12]
}

// Store is a directory of content-addressed datasets. All methods are safe
// for concurrent use.
type Store struct {
	dir string

	mu       sync.RWMutex
	datasets map[string]*Manifest
	skipped  []error
	// pins refcounts datasets referenced by queued or running jobs; a pinned
	// dataset survives Delete and retention sweeps until the last Unpin.
	pins map[string]int
	// persistedUse is each dataset's last-use value as written to disk;
	// TouchAt rewrites the manifest only when the clock has moved at least
	// touchPersistInterval past it, so hot datasets don't pay a manifest
	// serialize+rename per request.
	persistedUse map[string]time.Time
	// onDelete, when set, is called after every successful delete (outside
	// the lock) — the server hooks it to cascade cached results.
	onDelete func(id string)
	// tileReadHist, when set via SetMetrics, observes every verified tile
	// read's wall latency (open + range reads + digest + WKB decode).
	tileReadHist atomic.Pointer[metrics.Histogram]
	// decoded keeps recently decoded tile sets; see decoded.go.
	decoded *decodedCache
}

// Open opens (creating if needed) the store rooted at dir and recovers its
// datasets by re-scanning manifests. Leftover temp directories from crashed
// ingests are removed; a dataset whose manifest or segment fails validation
// is skipped — not fatal to the daemon — and reported via Skipped.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Store{
		dir:          dir,
		datasets:     make(map[string]*Manifest),
		pins:         make(map[string]int),
		persistedUse: make(map[string]time.Time),
		decoded:      newDecodedCache(decodedCacheBytes),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if len(name) > len(tmpPrefix) && name[:len(tmpPrefix)] == tmpPrefix {
			os.RemoveAll(filepath.Join(dir, name)) // crashed ingest
			continue
		}
		if !ValidateID(name) {
			continue
		}
		man, err := loadManifest(filepath.Join(dir, name), name)
		if err != nil {
			s.skipped = append(s.skipped, fmt.Errorf("store: dataset %s: %w", name, err))
			continue
		}
		// A crashed Touch can leave a temp manifest copy behind; sweep it.
		if tmps, _ := filepath.Glob(filepath.Join(dir, name, "manifest-tmp-*")); len(tmps) > 0 {
			for _, p := range tmps {
				os.Remove(p)
			}
		}
		s.datasets[man.ID] = man
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of recovered datasets.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.datasets)
}

// Skipped returns the validation errors of datasets Open refused to recover.
func (s *Store) Skipped() []error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]error(nil), s.skipped...)
}

// Get returns the manifest of the dataset with the given content ID.
func (s *Store) Get(id string) (*Manifest, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	man, ok := s.datasets[id]
	return man, ok
}

// List returns every dataset manifest, sorted by name then ID.
func (s *Store) List() []*Manifest {
	s.mu.RLock()
	out := make([]*Manifest, 0, len(s.datasets))
	for _, man := range s.datasets {
		out = append(out, man)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Delete removes a dataset from the index and from disk, failing with
// ErrPinned while any queued or running job holds the dataset pinned. Tile
// reads already holding the segment file finish; new reads fail. The
// directory is moved aside atomically under the lock before removal, so a
// concurrent re-ingest of identical content (whose Commit renames under the
// same lock) can never publish into a path a half-finished removal is still
// walking.
func (s *Store) Delete(id string) error { return s.remove(id, false) }

// ForceDelete removes a dataset even while pinned. A job caught mid-read
// fails with a "dataset deleted during job" error rather than a raw segment
// I/O error.
func (s *Store) ForceDelete(id string) error { return s.remove(id, true) }

func (s *Store) remove(id string, force bool) error {
	s.mu.Lock()
	if _, ok := s.datasets[id]; !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	if !force && s.pins[id] > 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrPinned, id)
	}
	trash, err := os.MkdirTemp(s.dir, tmpPrefix)
	if err == nil {
		err = os.Rename(filepath.Join(s.dir, id), filepath.Join(trash, id))
	}
	if err != nil {
		// Nothing moved: keep the dataset indexed and report the failure.
		s.mu.Unlock()
		if trash != "" {
			os.RemoveAll(trash)
		}
		return fmt.Errorf("store: delete %s: %w", id, err)
	}
	s.decoded.drop(s.datasets[id])
	delete(s.datasets, id)
	delete(s.persistedUse, id)
	hook := s.onDelete
	s.mu.Unlock()
	if hook != nil {
		// Outside the lock: the hook walks the server's cache layers.
		hook(id)
	}
	// Out of the namespace; a crash mid-removal leaves only a tmp- dir the
	// next Open sweeps away.
	if err := os.RemoveAll(trash); err != nil {
		return fmt.Errorf("store: delete %s: %w", id, err)
	}
	return nil
}

// SetDeleteHook registers fn to run after every successful delete (plain,
// forced, or retention-driven) with the removed dataset's ID. The server
// uses it to cascade cached results, so no delete path can orphan them.
func (s *Store) SetDeleteHook(fn func(id string)) {
	s.mu.Lock()
	s.onDelete = fn
	s.mu.Unlock()
}

// SetMetrics hooks the store into a metrics registry: every verified tile
// read from disk observes its latency into sccgd_store_tile_read_seconds, and
// a scrape reports the decoded cache's set lookups and size. Call once at
// startup.
func (s *Store) SetMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	s.tileReadHist.Store(r.Histogram("sccgd_store_tile_read_seconds"))
	r.OnScrape(func(e *metrics.Emitter) {
		bytes, _ := s.decoded.size()
		e.Counter("sccgd_store_decoded_hits_total", float64(s.decoded.hits.Load()))
		e.Counter("sccgd_store_decoded_misses_total", float64(s.decoded.misses.Load()))
		e.Gauge("sccgd_store_decoded_bytes", float64(bytes))
	})
}

// Pin marks the dataset as referenced by a queued or running job. While the
// refcount is positive, Delete (and the retention sweeper) refuse to remove
// it. Pinning a dataset the store does not hold fails with ErrNotFound, so a
// successful Pin guarantees the dataset stays readable until Unpin.
func (s *Store) Pin(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[id]; !ok {
		return ErrNotFound
	}
	s.pins[id]++
	return nil
}

// Unpin releases one Pin reference. Unpinning below zero is a no-op.
func (s *Store) Unpin(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.pins[id]; n > 1 {
		s.pins[id] = n - 1
	} else {
		delete(s.pins, id)
	}
}

// Pinned reports whether the dataset is currently pinned by any job.
func (s *Store) Pinned(id string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pins[id] > 0
}

// PinnedCount returns how many datasets are currently pinned.
func (s *Store) PinnedCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pins)
}

// PinnedBytes returns the summed segment bytes of currently pinned datasets
// — the part of the store a sweep can never reclaim. Admission control uses
// it to distinguish "cannot fit until pins release" (retryable) from "cannot
// fit even after evicting everything unpinned" (reject).
func (s *Store) PinnedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for id := range s.pins {
		if man, ok := s.datasets[id]; ok {
			total += man.SegmentBytes
		}
	}
	return total
}

// TotalBytes returns the summed segment size of every stored dataset — the
// quantity the retention byte budget bounds.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, man := range s.datasets {
		total += man.SegmentBytes
	}
	return total
}

// touchPersistInterval is how far the in-memory retention clock may run
// ahead of the manifest's persisted copy before TouchAt rewrites it. A hot
// dataset touched on every request then pays at most one manifest
// serialize+rename per interval; a crash loses at most this much recency.
const touchPersistInterval = time.Minute

// Touch records a use of the dataset now. See TouchAt.
func (s *Store) Touch(id string) { s.TouchAt(id, time.Now().UTC()) }

// TouchAt records a use of the dataset at the given time, advancing the
// retention clock in memory and — when the clock has moved at least
// touchPersistInterval since the last write (or moved backwards, which only
// explicit TouchAt calls do) — persisting it into the manifest so last-use
// ordering survives a restart. The manifest is replaced copy-on-write (the
// published *Manifest stays immutable) and rewritten with an atomic rename;
// a crashed write loses only recency, never dataset integrity. Touching an
// unknown dataset is a no-op.
func (s *Store) TouchAt(id string, t time.Time) {
	s.mu.Lock()
	man, ok := s.datasets[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	// The on-disk value: seeded from the manifest as loaded/committed the
	// first time the dataset is touched, then tracked across rewrites.
	prev, ok := s.persistedUse[id]
	if !ok {
		prev = man.LastUse()
		s.persistedUse[id] = prev
	}
	cp := *man
	cp.LastUsed = t
	s.datasets[id] = &cp
	persist := t.Before(prev) || t.Sub(prev) >= touchPersistInterval
	if persist {
		s.persistedUse[id] = t
	}
	s.mu.Unlock()
	if !persist {
		return
	}

	raw, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return
	}
	// Outside the lock: rename is atomic and last-writer-wins, so a racing
	// Touch (or a concurrent delete moving the directory away, which just
	// fails the write) is harmless.
	dir := filepath.Join(s.dir, id)
	f, err := os.CreateTemp(dir, "manifest-tmp-*")
	if err != nil {
		return
	}
	tmp := f.Name()
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestFile)); err != nil {
		os.Remove(tmp)
	}
}

// IngestTile is one tile's two parsed result sets handed to Ingest.
type IngestTile struct {
	Image string
	Tile  int
	A, B  []*geom.Polygon
}

// Ingest persists the tiles as one dataset and returns its manifest.
// Content-addressing makes it idempotent: re-ingesting identical polygon
// sets (in any tile order) returns the existing manifest without writing a
// second copy.
func (s *Store) Ingest(name string, tiles []IngestTile) (*Manifest, error) {
	w, err := s.NewWriter(name)
	if err != nil {
		return nil, err
	}
	for _, t := range tiles {
		if err := w.AddTile(t.Image, t.Tile, t.A, t.B); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Commit()
}

// tileKey orders and deduplicates tiles within one ingest.
type tileKey struct {
	image string
	tile  int
}

type tileEntry struct {
	info   TileInfo
	digest [sha256.Size]byte
}

// tileDigest hashes one tile's canonical content. Every variable-length
// field is length-prefixed (decimal, fixed separators), so no crafted image
// name or polygon byte sequence can make two different tiles encode to the
// same hash input.
func tileDigest(info TileInfo, segA, segB []byte) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "tile\x00%d:%s\x00%d\x00A%d:%d\x00", len(info.Image), info.Image, info.Tile, info.CountA, len(segA))
	h.Write(segA)
	fmt.Fprintf(h, "\x00B%d:%d\x00", info.CountB, len(segB))
	h.Write(segB)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Writer is a streaming ingest. AddTile encodes a tile's two sets into one
// buffer the Writer owns (sized beforehand from wkb.Size, reused for the next
// tile), hashes it and appends it to a temp segment file with one write, so an
// arbitrarily large dataset is ingested holding only one tile in memory.
// Commit seals the dataset under its content ID: segment fsync, manifest
// fsync, one rename, directory fsync. Content the store already holds costs
// none of those.
type Writer struct {
	s       *Store
	name    string
	tmp     string
	f       *os.File
	off     int64
	buf     []byte // the current tile's segment bytes, set A then set B
	entries []tileEntry
	seen    map[tileKey]struct{}
	polys   int64
}

// NewWriter starts a streaming ingest of a new dataset called name.
func (s *Store) NewWriter(name string) (*Writer, error) {
	tmp, err := os.MkdirTemp(s.dir, tmpPrefix)
	if err != nil {
		return nil, fmt.Errorf("store: ingest temp dir: %w", err)
	}
	f, err := os.Create(filepath.Join(tmp, segmentFile))
	if err != nil {
		os.RemoveAll(tmp)
		return nil, fmt.Errorf("store: ingest segment: %w", err)
	}
	return &Writer{s: s, name: name, tmp: tmp, f: f, seen: make(map[tileKey]struct{})}, nil
}

// setBytes returns the segment bytes a polygon set encodes to: a length prefix
// and a WKB record for each polygon.
func setBytes(polys []*geom.Polygon) (int, error) {
	n := 0
	for i, p := range polys {
		if p == nil {
			return 0, fmt.Errorf("store: polygon %d is nil", i)
		}
		n += recLenBytes + wkb.Size(p)
	}
	return n, nil
}

// appendSet frames a polygon set as length-prefixed WKB records.
func appendSet(dst []byte, polys []*geom.Polygon) []byte {
	for _, p := range polys {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(wkb.Size(p)))
		dst = wkb.Append(dst, p)
	}
	return dst
}

// AddTile appends one tile's two result sets to the dataset.
func (w *Writer) AddTile(image string, tile int, a, b []*geom.Polygon) error {
	key := tileKey{image: image, tile: tile}
	if _, dup := w.seen[key]; dup {
		return fmt.Errorf("%w: %s/%d", ErrDuplicateTile, image, tile)
	}
	lenA, err := setBytes(a)
	if err != nil {
		return fmt.Errorf("store: tile %s/%d set A: %w", image, tile, err)
	}
	lenB, err := setBytes(b)
	if err != nil {
		return fmt.Errorf("store: tile %s/%d set B: %w", image, tile, err)
	}
	if cap(w.buf) < lenA+lenB {
		w.buf = make([]byte, 0, lenA+lenB)
	}
	w.buf = appendSet(appendSet(w.buf[:0], a), b)
	segA, segB := w.buf[:lenA], w.buf[lenA:]
	info := TileInfo{
		Image: image, Tile: tile,
		OffA: w.off, LenA: int64(len(segA)), CountA: len(a),
		OffB: w.off + int64(len(segA)), LenB: int64(len(segB)), CountB: len(b),
		// Planning stats are computed here, the one place the decoded
		// polygons are already in hand; they ride the manifest as metadata
		// (the tile digest below covers identity and bytes only, so adding
		// stats never changes a dataset's content address).
		StatsA: computeSetStats(a),
		StatsB: computeSetStats(b),
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("store: append tile %s/%d: %w", image, tile, err)
	}
	w.off = info.OffB + info.LenB

	// The tile digest covers identity and both sets' exact bytes; the
	// dataset ID folds these in canonical order at Commit, so arrival order
	// cannot change the content address.
	var e tileEntry
	e.info = info
	e.digest = tileDigest(info, segA, segB)
	e.info.sum = e.digest
	e.info.Digest = hex.EncodeToString(e.digest[:])
	w.entries = append(w.entries, e)
	w.seen[key] = struct{}{}
	w.polys += int64(len(a) + len(b))
	return nil
}

// Bytes returns the segment bytes appended so far — the quantity a
// streaming ingest's admission check compares against byte budgets.
func (w *Writer) Bytes() int64 { return w.off }

// Abort discards the in-progress ingest.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.tmp != "" {
		os.RemoveAll(w.tmp)
		w.tmp = ""
	}
}

// Commit computes the content ID, writes the manifest, and publishes the
// dataset directory atomically. If the store already holds the content, the
// existing manifest is returned and the temp copy discarded.
func (w *Writer) Commit() (*Manifest, error) {
	defer w.Abort()
	if len(w.entries) == 0 {
		return nil, ErrEmpty
	}
	sort.Slice(w.entries, func(i, j int) bool {
		a, b := w.entries[i].info, w.entries[j].info
		if a.Image != b.Image {
			return a.Image < b.Image
		}
		return a.Tile < b.Tile
	})
	idh := sha256.New()
	for _, e := range w.entries {
		idh.Write(e.digest[:])
	}
	id := hex.EncodeToString(idh.Sum(nil))

	// Content the store already holds needs no second durable copy; the
	// check is repeated under the write lock below for the ingest that
	// loses a race against an identical one.
	s := w.s
	if existing, ok := s.Get(id); ok {
		return existing, nil // deferred Abort drops the temp copy
	}

	man := &Manifest{
		ID:           id,
		Name:         w.name,
		Created:      time.Now().UTC(),
		SegmentBytes: w.off,
		Polygons:     w.polys,
		Tiles:        make([]TileInfo, len(w.entries)),
	}
	for i, e := range w.entries {
		man.Tiles[i] = e.info
	}

	if err := w.f.Sync(); err != nil {
		return nil, fmt.Errorf("store: sync segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return nil, fmt.Errorf("store: close segment: %w", err)
	}
	w.f = nil
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encode manifest: %w", err)
	}
	if err := writeFileSync(filepath.Join(w.tmp, manifestFile), raw); err != nil {
		return nil, fmt.Errorf("store: write manifest: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.datasets[id]; ok {
		return existing, nil // content already stored; deferred Abort drops the temp copy
	}
	if err := os.Rename(w.tmp, filepath.Join(s.dir, id)); err != nil {
		return nil, fmt.Errorf("store: publish dataset %s: %w", id, err)
	}
	w.tmp = ""
	// The content exists again: its retention clock restarts from this
	// manifest (and readers no longer classify it as deleted).
	delete(s.persistedUse, id)
	// Make the rename itself durable: without a directory fsync a power
	// failure can roll back the publish after the caller was handed the ID.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	s.datasets[id] = man
	return man, nil
}

// writeFileSync writes data and fsyncs before closing, so a crash after
// Commit returns cannot leave a committed dataset with a torn manifest.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadManifest reads and validates one dataset directory during recovery.
func loadManifest(dir, id string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("decode manifest: %w", err)
	}
	if man.ID != id {
		return nil, fmt.Errorf("manifest ID %q does not match directory %q", man.ID, id)
	}
	if err := man.Validate(); err != nil {
		return nil, err
	}
	st, err := os.Stat(filepath.Join(dir, segmentFile))
	if err != nil {
		return nil, fmt.Errorf("stat segment: %w", err)
	}
	if st.Size() != man.SegmentBytes {
		return nil, fmt.Errorf("segment is %d bytes, manifest says %d", st.Size(), man.SegmentBytes)
	}
	return &man, nil
}

// Validate checks the manifest against the store's content-addressing
// invariants — the same checks recovery applies to a manifest read back from
// disk, shared with the peer-pull import path so a manifest served by
// another node is held to exactly the standard a local one is. It also
// normalizes the way recovery does: tiles are sorted into canonical
// (image, tile) order, and planning stats that fail their own consistency
// check are dropped (stats sit outside the digest fold, so a mangled copy
// must degrade planning, not reject a verifiable dataset). Validate never
// touches the filesystem; agreement between SegmentBytes and the actual
// segment is the caller's check.
func (m *Manifest) Validate() error {
	if !ValidateID(m.ID) {
		return fmt.Errorf("manifest ID %q is not a content address", m.ID)
	}
	if len(m.Tiles) == 0 {
		return errors.New("manifest lists no tiles")
	}
	if m.SegmentBytes < 0 || m.Polygons < 0 {
		return errors.New("manifest carries negative sizes")
	}
	seen := make(map[tileKey]struct{}, len(m.Tiles))
	for _, ti := range m.Tiles {
		// Same uniqueness invariant the Writer enforces: a duplicated
		// (image, tile) entry would double-count that tile in every job.
		key := tileKey{image: ti.Image, tile: ti.Tile}
		if _, dup := seen[key]; dup {
			return fmt.Errorf("tile %s/%d listed twice in manifest", ti.Image, ti.Tile)
		}
		seen[key] = struct{}{}
		// Overflow-safe bounds: Len <= total and Off <= total-Len, so a
		// manifest with huge offsets cannot wrap Off+Len negative and slip
		// past into a later make([]byte, Len) panic.
		if ti.CountA < 0 || ti.CountB < 0 ||
			ti.LenA < 0 || ti.LenA > m.SegmentBytes || ti.OffA < 0 || ti.OffA > m.SegmentBytes-ti.LenA ||
			ti.LenB < 0 || ti.LenB > m.SegmentBytes || ti.OffB < 0 || ti.OffB > m.SegmentBytes-ti.LenB {
			return fmt.Errorf("tile %s/%d byte range out of bounds", ti.Image, ti.Tile)
		}
		// Each polygon record costs at least its length prefix, so a count
		// beyond LenX/recLenBytes is unsatisfiable — reject it here rather
		// than letting decodeSet size a slice from a crafted manifest.
		if int64(ti.CountA) > ti.LenA/recLenBytes || int64(ti.CountB) > ti.LenB/recLenBytes {
			return fmt.Errorf("tile %s/%d polygon count exceeds its byte range", ti.Image, ti.Tile)
		}
		if !idPattern.MatchString(ti.Digest) {
			return fmt.Errorf("tile %s/%d carries no content digest", ti.Image, ti.Tile)
		}
	}
	// Planning stats sit outside the digest fold, so a mangled manifest
	// can carry inconsistent ones; drop those (the planner degrades to the
	// trivial bound) instead of rejecting an otherwise-verifiable dataset.
	for i := range m.Tiles {
		if m.Tiles[i].StatsA != nil && !m.Tiles[i].StatsA.Valid() {
			m.Tiles[i].StatsA = nil
		}
		if m.Tiles[i].StatsB != nil && !m.Tiles[i].StatsB.Valid() {
			m.Tiles[i].StatsB = nil
		}
	}
	sort.Slice(m.Tiles, func(i, j int) bool {
		if m.Tiles[i].Image != m.Tiles[j].Image {
			return m.Tiles[i].Image < m.Tiles[j].Image
		}
		return m.Tiles[i].Tile < m.Tiles[j].Tile
	})
	// Enforce the invariant Commit established: the dataset ID is the fold
	// of the per-tile digests in canonical order. A manifest whose tile list
	// doesn't hash back to its own content address (swapped in from another
	// dataset, partially restored, served by a lying peer) is rejected.
	idh := sha256.New()
	for i := range m.Tiles {
		ti := &m.Tiles[i]
		if _, err := hex.Decode(ti.sum[:], []byte(ti.Digest)); err != nil {
			return fmt.Errorf("tile %s/%d digest is not hex: %v", ti.Image, ti.Tile, err)
		}
		idh.Write(ti.sum[:])
	}
	if got := hex.EncodeToString(idh.Sum(nil)); got != m.ID {
		return fmt.Errorf("manifest tile digests fold to %s, not the manifest's content address", got)
	}
	return nil
}

// Dataset is a lazy reader over one stored dataset: each read that misses the
// store's decoded cache opens the segment file and reads only that tile's
// byte ranges, so a scheduler worker touches only the tile it took and deleting a
// dataset mid-job fails that job cleanly instead of leaking a handle.
type Dataset struct {
	st  *Store
	dir string // the published directory, or Import's temp copy
	man *Manifest
}

// OpenDataset returns a lazy per-tile reader for the dataset.
func (s *Store) OpenDataset(id string) (*Dataset, error) {
	man, ok := s.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	return &Dataset{st: s, dir: filepath.Join(s.dir, id), man: man}, nil
}

// wasRemoved reports whether the dataset was deleted from this store after
// the reader was opened. Readers only exist for datasets that were indexed
// when opened, so absence from the index IS the deletion signal — no
// tombstone set to grow unboundedly across a long-lived daemon's sweeps.
// Import's reader is not indexed yet and never asks: it reads through the
// handle it wrote the copy with.
func (d *Dataset) wasRemoved() bool {
	d.st.mu.RLock()
	defer d.st.mu.RUnlock()
	_, present := d.st.datasets[d.man.ID]
	return !present
}

func (d *Dataset) errDeleted() error {
	return fmt.Errorf("%w: dataset %s (%s)", ErrDeleted, d.man.ID, d.man.DisplayName())
}

// Manifest returns the dataset's manifest.
func (d *Dataset) Manifest() *Manifest { return d.man }

// ReadTile returns tile i's two polygon sets. A set the store's decoded
// cache holds is returned as is; otherwise the tile is read from the segment
// file, first re-verifying its content digest (so size-preserving corruption
// is caught even when the bytes still decode), then fully validating every
// WKB record (the SDBMS deserialization protocol cost). The polygons and the
// slices may be shared with other readers: callers must not modify them.
func (d *Dataset) ReadTile(i int) (a, b []*geom.Polygon, err error) {
	setA, setB, err := d.readSets(i, true, true)
	if err != nil {
		return nil, nil, err
	}
	return setA.polys, setB.polys, nil
}

// readSets returns the sets of tile i asked for (nil for one not asked for),
// from the decoded cache when it holds all of them and from a verified read
// of the segment otherwise.
func (d *Dataset) readSets(i int, wantA, wantB bool) (a, b *decodedSet, err error) {
	if i < 0 || i >= len(d.man.Tiles) {
		return nil, nil, fmt.Errorf("store: dataset %s has no tile index %d", d.man.ID, i)
	}
	ti := &d.man.Tiles[i]
	if wantA {
		a = d.st.decoded.get(decodedKey{ti.sum, 'A'})
	}
	if wantB {
		b = d.st.decoded.get(decodedKey{ti.sum, 'B'})
	}
	needA, needB := wantA && a == nil, wantB && b == nil
	if !needA && !needB {
		// A cached set outlives nothing: a handle whose dataset is gone
		// fails here exactly as it would opening the segment.
		if d.wasRemoved() {
			return nil, nil, d.errDeleted()
		}
		return a, b, nil
	}
	newA, newB, err := d.load(ti, needA, needB)
	if err != nil {
		return nil, nil, err
	}
	d.st.keepDecoded(d.man.ID, newA, newB)
	if needA {
		a = newA
	}
	if needB {
		b = newB
	}
	return a, b, nil
}

// load opens the segment file and verifies and decodes tile ti from it.
func (d *Dataset) load(ti *TileInfo, wantA, wantB bool) (a, b *decodedSet, err error) {
	start := time.Now()
	f, err := os.Open(filepath.Join(d.dir, segmentFile))
	if err != nil {
		// Distinguish a lifecycle fault from a storage fault: a segment that
		// vanished because the dataset was force-deleted mid-job reports the
		// delete, not the raw open error.
		if d.wasRemoved() {
			return nil, nil, d.errDeleted()
		}
		return nil, nil, fmt.Errorf("store: dataset %s: %w", d.man.ID, err)
	}
	defer f.Close()
	return d.verify(f, ti, start, wantA, wantB)
}

// verify reads tile ti's byte ranges from the segment f, re-verifies the
// tile's content digest and decodes the sets asked for. The digest covers
// both sets jointly, so both ranges are always read even when only one is
// decoded — verification is never skipped on the cross-dataset read path.
// A read miss and Import both come through here, so every set the decoded
// cache holds was built by this one step; start is when the read began.
func (d *Dataset) verify(f *os.File, ti *TileInfo, start time.Time, wantA, wantB bool) (a, b *decodedSet, err error) {
	segA, err := d.readRange(f, ti, 'A', ti.OffA, ti.LenA)
	if err != nil {
		return nil, nil, err
	}
	segB, err := d.readRange(f, ti, 'B', ti.OffB, ti.LenB)
	if err != nil {
		return nil, nil, err
	}
	if tileDigest(*ti, segA, segB) != ti.sum {
		return nil, nil, fmt.Errorf("store: dataset %s tile %s/%d corrupt: content digest mismatch",
			d.man.ID, ti.Image, ti.Tile)
	}
	if wantA {
		if a, err = d.decodeSet(ti, 'A', segA, ti.CountA); err != nil {
			return nil, nil, err
		}
	}
	if wantB {
		if b, err = d.decodeSet(ti, 'B', segB, ti.CountB); err != nil {
			return nil, nil, err
		}
	}
	// Only successful reads are observed: failure latency is dominated by
	// error paths (missing segment, corrupt digest), which would pollute the
	// read-latency distribution the histogram exists to show.
	if hist := d.st.tileReadHist.Load(); hist != nil {
		hist.ObserveSince(start)
	}
	return a, b, nil
}

func (d *Dataset) readRange(f *os.File, ti *TileInfo, set byte, off, ln int64) ([]byte, error) {
	buf := make([]byte, ln)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: dataset %s tile %s/%d set %c corrupt: read %d bytes at %d: %v",
			d.man.ID, ti.Image, ti.Tile, set, ln, off, err)
	}
	return buf, nil
}

// decodeSet decodes one set's length-prefixed WKB records. It frames and
// header-checks every record first, which tells it how many vertices the set
// holds, then validates each record into one slab sized for all of them, and
// gives the polygons their band tables and row masks and the set its tree.
func (d *Dataset) decodeSet(ti *TileInfo, set byte, buf []byte, count int) (*decodedSet, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("store: dataset %s tile %s/%d set %c corrupt: %s",
			d.man.ID, ti.Image, ti.Tile, set, fmt.Sprintf(format, args...))
	}
	vertices := 0
	rest := buf
	for i := 0; i < count; i++ {
		if len(rest) < recLenBytes {
			return nil, corrupt("truncated record header for polygon %d", i)
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		if n > int64(len(rest)-recLenBytes) {
			return nil, corrupt("polygon %d claims %d bytes, only %d remain", i, n, len(rest)-recLenBytes)
		}
		nv, err := wkb.RingVertices(rest[recLenBytes : recLenBytes+n])
		if err != nil {
			return nil, corrupt("polygon %d: %v", i, err)
		}
		vertices += nv
		rest = rest[recLenBytes+n:]
	}
	if len(rest) != 0 {
		return nil, corrupt("%d trailing bytes after %d polygons", len(rest), count)
	}
	slab := geom.NewSlab(count, vertices)
	polys := make([]*geom.Polygon, count)
	for i := range polys {
		n := int64(binary.LittleEndian.Uint32(buf))
		p, err := wkb.UnmarshalInto(slab, buf[recLenBytes:recLenBytes+n])
		if err != nil {
			return nil, corrupt("polygon %d: %v", i, err)
		}
		polys[i] = p
		buf = buf[recLenBytes+n:]
	}
	// The set is about to be kept, and every later job over the tile counts
	// with its polygons' bands and masks and joins its index: build them now,
	// while nothing else can see the polygons.
	slab.BuildBands()
	return newDecodedSet(decodedKey{ti.sum, set}, slab, polys, rtree.Index(polys)), nil
}

// Source returns the dataset as a lazily-materializing task source: the
// scheduler hands out tile handles and each worker reads only the decoded
// polygon sets of the tile it took.
func (d *Dataset) Source() *DatasetSource { return &DatasetSource{d: d} }

// DatasetSource adapts a stored dataset to the scheduler's task-source
// contract (Len/PolyTask) without the scheduler importing the store.
// Task serves a tile as canonical polygon text, byte-identical to what
// parser.Encode makes of the same polygons, for callers of the paper's text
// pipeline.
type DatasetSource struct {
	d *Dataset
}

// Len returns the tile count.
func (src *DatasetSource) Len() int { return len(src.d.man.Tiles) }

// Weight returns tile i's encoded byte size, a cost proxy from the manifest.
func (src *DatasetSource) Weight(i int) int64 { return src.d.man.Tiles[i].Bytes() }

// Task materializes tile i as pipeline input.
func (src *DatasetSource) Task(i int) (pipeline.FileTask, error) {
	a, b, err := src.d.ReadTile(i)
	if err != nil {
		return pipeline.FileTask{}, err
	}
	ti := src.d.man.Tiles[i]
	return pipeline.FileTask{
		Image: ti.Image,
		Tile:  ti.Tile,
		RawA:  parser.Encode(a),
		RawB:  parser.Encode(b),
	}, nil
}

// PolyTask materializes tile i as pre-parsed pipeline input: the store
// validated every WKB record at ingest (and re-validates on every decode),
// so stored tiles skip the text re-encode/re-parse round trip entirely. The
// decoded polygons are exactly what parsing the canonical text would yield,
// and the trees kept with them exactly what the builder stage would build,
// keeping reports bit-identical to the FileTask path.
func (src *DatasetSource) PolyTask(i int) (pipeline.PolyTask, error) {
	a, b, err := src.d.readSets(i, true, true)
	if err != nil {
		return pipeline.PolyTask{}, err
	}
	return polyTask(&src.d.man.Tiles[i], a, b), nil
}

// polyTask is the pipeline input comparing set a against set b under tile
// ti's key, with the trees the sets were kept with.
func polyTask(ti *TileInfo, a, b *decodedSet) pipeline.PolyTask {
	return pipeline.PolyTask{Image: ti.Image, Tile: ti.Tile, A: a.polys, B: b.polys, TreeA: a.tree, TreeB: b.tree}
}
