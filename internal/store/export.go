package store

// Peer-transfer surface: streaming export of a dataset's raw segment and
// import-by-copy of a manifest+segment received from another store. Because
// datasets are immutable and content-addressed, replication is pure file
// copy — but an importing store trusts nothing: the manifest must fold back
// to its own content address and every tile of the copied segment goes
// through the step a read miss uses — digest check, full WKB validation, band
// tables, row masks and tree — before the dataset is published. Each tile
// carries its own digest, so the tiles verify in parallel on every core while
// the segment fsync runs beside them. What that step built, as far as the
// decoded cache's bound keeps it, is then handed to the cache, so the job a
// pull was made for reads no segment bytes. Any failure removes the temp
// directory and keeps nothing, so a corrupt or malicious peer can never leave
// a partial or poisoned dataset on disk or in the cache.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// OpenSegment opens dataset id's segment file for streaming export and
// returns it with its manifest-recorded size. The caller owns the handle; a
// concurrent delete moves the directory aside but an already-open handle
// keeps streaming, same as in-flight tile reads.
func (s *Store) OpenSegment(id string) (io.ReadCloser, int64, error) {
	man, ok := s.Get(id)
	if !ok {
		return nil, 0, ErrNotFound
	}
	f, err := os.Open(filepath.Join(s.dir, id, segmentFile))
	if err != nil {
		if _, ok := s.Get(id); !ok {
			return nil, 0, ErrNotFound // deleted between index lookup and open
		}
		return nil, 0, fmt.Errorf("store: open segment %s: %w", id, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: stat segment %s: %w", id, err)
	}
	if fi.Size() != man.SegmentBytes {
		f.Close()
		return nil, 0, fmt.Errorf("store: segment %s is %d bytes, manifest says %d", id, fi.Size(), man.SegmentBytes)
	}
	return f, man.SegmentBytes, nil
}

// Import copies a dataset — a manifest plus its raw segment stream, as
// served by another store's export — into this store under the same content
// address. The manifest is structurally validated (including the
// digest-fold-equals-ID check) and the segment is copied into a temp
// directory. Then, while the copy syncs, every tile is read back through the
// handle it was written with and verified and decoded exactly as a read miss
// is — content digest first, full WKB decode, band tables and tree second — on
// every core. Only a copy that synced and passed all of it is published, with
// the same atomic rename + directory fsync Commit uses, and its decoded sets
// go to the decoded cache, in tile order, under the same lock that indexes
// it; Import holds no more of them than that hand-over keeps. verify is how
// long that took, from the copied bytes to the publish: the part of a peer
// pull that is not transfer. Importing content the store already holds
// returns the existing manifest untouched.
func (s *Store) Import(man *Manifest, seg io.Reader) (imported *Manifest, verify time.Duration, err error) {
	if man == nil {
		return nil, 0, errors.New("store: import: nil manifest")
	}
	// Work on a private copy: Validate normalizes in place, and the caller's
	// manifest (typically decoded from a peer response) stays untouched.
	cp := *man
	cp.Tiles = append([]TileInfo(nil), man.Tiles...)
	if err := cp.Validate(); err != nil {
		return nil, 0, fmt.Errorf("store: import %.12s: %w", cp.ID, err)
	}
	if existing, ok := s.Get(cp.ID); ok {
		return existing, 0, nil // content already stored
	}
	// The origin's retention clock is its own; the import is a fresh use here.
	cp.LastUsed = time.Now().UTC()

	tmp, err := os.MkdirTemp(s.dir, tmpPrefix)
	if err != nil {
		return nil, 0, fmt.Errorf("store: import temp dir: %w", err)
	}
	cleanup := func() {
		if tmp != "" {
			os.RemoveAll(tmp)
		}
	}
	defer cleanup()

	f, err := os.Create(filepath.Join(tmp, segmentFile))
	if err != nil {
		return nil, 0, fmt.Errorf("store: import segment: %w", err)
	}
	defer f.Close() // error paths; the success path checks Close below
	// +1 past the declared size so an over-long stream shows up as a size
	// mismatch instead of copying unboundedly.
	n, err := io.Copy(f, io.LimitReader(seg, cp.SegmentBytes+1))
	if err != nil {
		return nil, 0, fmt.Errorf("store: import %.12s: copy segment: %w", cp.ID, err)
	}
	if n != cp.SegmentBytes {
		return nil, 0, fmt.Errorf("store: import %.12s: segment is %d bytes, manifest says %d", cp.ID, n, cp.SegmentBytes)
	}
	copied := time.Now()

	// The segment syncs while its tiles verify; publish waits for both, so
	// the rename still follows a successful sync.
	synced := make(chan error, 1)
	go func() { synced <- f.Sync() }()
	// Verify from the peer's bytes, never through the decoded cache, where
	// another dataset's set under the same digest would stand in for bytes
	// nobody checked.
	d := &Dataset{st: s, dir: tmp, man: &cp}
	kept := newHandOver(s.decoded.max, len(cp.Tiles))
	err = d.verifyCopy(f, kept)
	if syncErr := <-synced; err == nil && syncErr != nil {
		err = fmt.Errorf("sync segment: %w", syncErr)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: import %.12s: %w", cp.ID, err)
	}
	if err := f.Close(); err != nil {
		return nil, 0, fmt.Errorf("store: import %.12s: close segment: %w", cp.ID, err)
	}

	raw, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, 0, fmt.Errorf("store: import %.12s: encode manifest: %w", cp.ID, err)
	}
	if err := writeFileSync(filepath.Join(tmp, manifestFile), raw); err != nil {
		return nil, 0, fmt.Errorf("store: import %.12s: write manifest: %w", cp.ID, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitDeleteHookLocked(cp.ID)
	if existing, ok := s.datasets[cp.ID]; ok {
		return existing, time.Since(copied), nil // raced a concurrent ingest/import; deferred cleanup drops the copy
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, cp.ID)); err != nil {
		return nil, 0, fmt.Errorf("store: publish imported dataset %s: %w", cp.ID, err)
	}
	tmp = ""
	delete(s.persistedUse, cp.ID)
	// Make the rename itself durable, matching Commit.
	if dh, err := os.Open(s.dir); err == nil {
		dh.Sync()
		dh.Close()
	}
	s.datasets[cp.ID] = &cp
	// Under the lock that indexed the dataset, as keepDecoded does for a read:
	// a remove waits for it and then drops these sets with the rest.
	for _, set := range kept.sets {
		if set != nil {
			s.decoded.put(set)
		}
	}
	return &cp, time.Since(copied), nil
}

// verifyCopy verifies and decodes every tile of Import's copy through f, the
// handle it was written with (ReadAt is safe for concurrent use), on
// min(GOMAXPROCS, tiles) goroutines sharing one tile cursor, and gives each
// tile's sets to kept. The first failure stops the handing out of tiles;
// verifyCopy returns once every goroutine has, with the failure of the lowest
// tile index — the copy's first bad tile, since every tile below it was
// handed out earlier and has finished.
func (d *Dataset) verifyCopy(f *os.File, kept *handOver) error {
	tiles := d.man.Tiles
	errs := make([]error, len(tiles))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(tiles)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(tiles) {
					return
				}
				a, b, err := d.verify(f, &tiles[i], time.Now(), true, true)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				kept.add(i, a, b)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
