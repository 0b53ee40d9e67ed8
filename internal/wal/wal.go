// Package wal is the node's record log, its one way to make small state
// durable (LogBase, PAPERS.md: the log is the store, the index lives in
// memory). Each owner — the result table, tenant attribution — keeps its own
// file and record kinds, appends only under its own lock, and replays the
// file at boot.
//
// A record is a 4-byte little-endian length, a 4-byte CRC-32C of the body,
// then the body: the owner's kind byte and payload. Durability is
// group-committed: a writer appends under the owner's lock and waits, outside
// it, for an fsync covering its record; one fsync carries every record
// appended while the previous one ran, and whoever waits while none runs
// takes the committer's role for one round (no goroutine, no timer). A
// record nobody waits for rides on the next commit. Once dead bytes exceed
// both the live bytes and CompactFloor, the owner rewrites its live records
// to a new file: temp file, fsync, rename, directory fsync.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	header    = 8        // length, then CRC-32C of the body
	maxRecord = 64 << 20 // a longer length is a corrupt header, not a record

	// CompactFloor is the dead bytes below which a log is never rewritten.
	CompactFloor = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	errTorn     = errors.New("log ends inside a record")
	errHeader   = errors.New("record length out of range")
	errChecksum = errors.New("record checksum mismatch")
)

// Frame returns one record of kind carrying payload.
func Frame(kind byte, payload []byte) []byte {
	rec := make([]byte, header+1+len(payload))
	rec[header] = kind
	copy(rec[header+1:], payload)
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-header))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[header:], castagnoli))
	return rec
}

// Replay passes each of raw's intact records, with its framed length n, to
// apply. Each record it cannot use (a bad checksum, or apply's error) is
// passed to skip with its offset and reason. end is where the usable log
// ends; when that is short of len(raw), torn says why the tail is
// unreadable: a header that is cut or out of range, or a last record whose
// checksum fails (a write the crash cut short).
func Replay(raw []byte, apply func(kind byte, payload []byte, n int64) error, skip func(off int64, err error)) (end int64, torn error) {
	for end < int64(len(raw)) {
		rest := raw[end:]
		if len(rest) < header {
			return end, errTorn
		}
		n := header + int64(binary.LittleEndian.Uint32(rest))
		switch {
		case n == header || n > header+maxRecord:
			return end, errHeader
		case n > int64(len(rest)):
			return end, errTorn
		}
		err := errChecksum
		if body := rest[header:n]; crc32.Checksum(body, castagnoli) == binary.LittleEndian.Uint32(rest[4:]) {
			err = apply(body[0], body[1:], n)
		} else if n == int64(len(rest)) {
			return end, err
		}
		if err != nil {
			skip(end, err)
		}
		end += n
	}
	return end, nil
}

// Batch is the records one fsync carries.
type Batch struct {
	n    int  // records appended into it
	done bool // its fsync returned
	err  error
}

// Log is an open record log. Its write side (Append, Live, CompactDue,
// Rewrite) belongs to the owner's lock; Rewrite replaces the file, so the
// owner calls it only from Commit's compact, or before the log is shared.
type Log struct {
	// Live is the bytes of the records the owner's table holds, kept by
	// the owner.
	Live int64

	path   string
	f      *os.File
	size   int64 // bytes in the file
	failed error // set when nothing more may be appended

	syncs atomic.Int64 // commit fsyncs run

	mu      sync.Mutex // the commit side
	cond    sync.Cond
	open    *Batch // collecting the records the next fsync carries
	syncing bool   // a committer is running
}

// Open replays the log at path through apply (see Replay), cuts a torn tail
// off, with skip hearing why, and opens the log for appending, creating it
// and its directory if need be. On an error the returned Log refuses every
// Append with it, so an owner that cannot work without its log fails its
// writes rather than checking for nil.
func Open(path string, apply func(kind byte, payload []byte, n int64) error, skip func(off int64, err error)) (*Log, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err != nil {
		return &Log{path: path, failed: err}, err
	}
	end, torn := Replay(raw, apply, skip)
	if torn != nil {
		skip(end, fmt.Errorf("cut off the torn tail: %w", torn))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err == nil && end < int64(len(raw)) {
		if err = f.Truncate(end); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return &Log{path: path, failed: err}, err
	}
	l := &Log{path: path, f: f, size: end, open: new(Batch)}
	l.cond.L = &l.mu
	return l, nil
}

// Append writes rec and returns the batch whose fsync will carry it.
func (l *Log) Append(rec []byte) (*Batch, error) {
	if l.failed != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(l.path), l.failed)
	}
	if _, err := l.f.Write(rec); err != nil {
		// Cut the partial record off, so the records after it replay.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.failed = fmt.Errorf("closed by an earlier failed write: %w", terr)
		}
		return nil, err
	}
	l.size += int64(len(rec))
	l.mu.Lock()
	b := l.open
	b.n++
	l.mu.Unlock()
	return b, nil
}

// Syncs returns how many commit fsyncs have run.
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// CompactDue reports whether the dead bytes exceed both the live bytes and
// CompactFloor.
func (l *Log) CompactDue() bool {
	return l.failed == nil && l.size-l.Live > max(l.Live, CompactFloor)
}

// Rewrite replaces the log with recs, the owner's live records: temp file,
// fsync, rename, directory fsync. On an error before the rename the old file
// stays as it was; an error from the directory fsync leaves the new file in
// place, its rename perhaps not yet durable.
func (l *Log) Rewrite(recs []byte) error {
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(recs); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	l.f.Close()
	l.f, l.size, l.Live = f, int64(len(recs)), int64(len(recs))
	d, err := os.Open(filepath.Dir(l.path))
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// Commit blocks until b's fsync has returned, running it if no committer is
// running, and returns how many records that fsync carried. A committer runs
// compact after its fsync, before it hands the role on.
func (l *Log) Commit(b *Batch, compact func()) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !b.done {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		cur := l.open
		l.open, l.syncing = new(Batch), true
		l.mu.Unlock()
		cur.err = l.f.Sync()
		l.syncs.Add(1)
		compact()
		l.mu.Lock()
		cur.done, l.syncing = true, false
		l.cond.Broadcast()
	}
	return b.n, b.err
}
