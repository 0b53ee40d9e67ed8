package server

// The result table's disk form: one append-only log,
// <data-dir>/cache/results.log. The table in memory is the index; the log is
// only ever appended to, always under the table's mutex, so its order is the
// table's order, and boot replays it.
//
// A record is framed as a 4-byte little-endian length, a 4-byte CRC-32C of
// the body, then the body: one kind byte and its payload —
//
//   - 'e' and an entry's compact JSON: the entry's key now holds it;
//   - 'd' and a key: the key's entry is gone (eviction, delete cascade);
//   - 'r' alone: every entry before it is gone (DELETE /cache).
//
// Durability is group-committed. An adopter appends its entry record under
// the lock and waits, outside it, for an fsync covering the record; one fsync
// carries every record appended while the previous one ran. Whoever waits
// while no fsync runs takes the committer's role for one round: there is no
// goroutine and no timer. Drops and resets are appended without waiting; the
// next commit carries them. A crash that loses one brings back entries that
// are still exact answers, and boot's liveness gate keeps a deleted
// dataset's out.
//
// Once the log's dead bytes (records the table no longer holds) exceed both
// its live bytes and compactFloor, the committer rewrites the live records to
// a new file — temp file, fsync, rename, directory fsync.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	recEntry = 'e'
	recDrop  = 'd'
	recReset = 'r'

	recHeader    = 8        // length, then CRC-32C of the body
	maxRecord    = 64 << 20 // a longer length is a corrupt header, not a record
	compactFloor = 1 << 20  // dead bytes below this never trigger a rewrite
	logName      = "results.log"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	errTorn     = errors.New("log ends inside a record")
	errHeader   = errors.New("record length out of range")
	errChecksum = errors.New("record checksum mismatch")
)

// frame returns one record of kind carrying payload.
func frame(kind byte, payload []byte) []byte {
	rec := make([]byte, recHeader+1+len(payload))
	rec[recHeader] = kind
	copy(rec[recHeader+1:], payload)
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-recHeader))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[recHeader:], castagnoli))
	return rec
}

// readRecord decodes the record at the head of raw; n is its framed length,
// 0 when the header itself is unusable (no later record can be found).
func readRecord(raw []byte) (kind byte, payload []byte, n int, err error) {
	if len(raw) < recHeader {
		return 0, nil, 0, errTorn
	}
	size := binary.LittleEndian.Uint32(raw)
	switch {
	case size == 0 || size > maxRecord:
		return 0, nil, 0, errHeader
	case int64(size) > int64(len(raw)-recHeader):
		return 0, nil, 0, errTorn
	}
	n = recHeader + int(size)
	body := raw[recHeader:n]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(raw[4:]) {
		return 0, nil, n, errChecksum
	}
	return body[0], body[1:], n, nil
}

// loggedEntry is an entry replayed from the log and its record's framed size.
type loggedEntry struct {
	e     *resultEntry
	bytes int64
}

// replayLog folds raw's records into the entries they leave live. Each record
// it cannot use is passed to skip with its offset and reason, and its bytes
// stay dead. end is where the usable log ends; when that is short of
// len(raw), torn says why the tail is unreadable. An unreadable last record
// is a torn tail too: a write the crash cut short.
func replayLog(raw []byte, skip func(off int, err error)) (live map[string]loggedEntry, end int, torn error) {
	live = make(map[string]loggedEntry)
	for end < len(raw) {
		kind, payload, n, err := readRecord(raw[end:])
		if err != nil && (n == 0 || end+n == len(raw)) {
			return live, end, err
		}
		if err == nil {
			err = applyRecord(live, kind, payload, n)
		}
		if err != nil {
			skip(end, err)
		}
		end += n
	}
	return live, end, nil
}

// applyRecord folds one intact record into live. An entry record must decode
// and pass validate, like every other way into the table.
func applyRecord(live map[string]loggedEntry, kind byte, payload []byte, n int) error {
	switch kind {
	case recEntry:
		e := new(resultEntry)
		if err := json.Unmarshal(payload, e); err != nil {
			return err
		}
		if err := e.validate(); err != nil {
			return fmt.Errorf("cache entry %q: %w", e.Key, err)
		}
		live[e.Key] = loggedEntry{e, int64(n)}
	case recDrop:
		delete(live, string(payload))
	case recReset:
		clear(live)
	default:
		return fmt.Errorf("unknown record kind %q", kind)
	}
	return nil
}

// logBatch is the records one fsync carries.
type logBatch struct {
	n    int  // records appended into it
	done bool // its fsync returned
	err  error
}

// resultLog is the open log. Its write side belongs to the result table's
// mutex; only a committer replaces f, and only while holding that mutex.
type resultLog struct {
	dir, path string

	f      *os.File
	size   int64 // bytes in the file
	live   int64 // bytes of the entry records the table holds
	failed bool  // a torn write could not be cut off: nothing more is appended

	syncs atomic.Int64 // commit fsyncs run

	mu      sync.Mutex // the commit side
	cond    sync.Cond
	open    *logBatch // collecting the records the next fsync carries
	syncing bool      // a committer is running
}

// openResultLog replays the log in dir, cuts a torn tail off, and opens it
// for appending. skip hears of every unusable record.
func openResultLog(dir string, skip func(off int, err error)) (l *resultLog, live map[string]loggedEntry, torn error, err error) {
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, err
	}
	live, end, torn := replayLog(raw, skip)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err == nil && end < len(raw) {
		if err = f.Truncate(int64(end)); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	l = &resultLog{dir: dir, path: path, f: f, size: int64(end), open: new(logBatch)}
	l.cond.L = &l.mu
	return l, live, torn, nil
}

// appendLocked writes rec and returns the batch whose fsync will carry it.
func (l *resultLog) appendLocked(rec []byte) (*logBatch, error) {
	if l.failed {
		return nil, errors.New("results log closed by an earlier failed write")
	}
	if _, err := l.f.Write(rec); err != nil {
		// Cut the partial record off, so the records after it replay.
		if l.f.Truncate(l.size) != nil {
			l.failed = true
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

// compactDueLocked reports whether the dead bytes exceed both the live bytes
// and compactFloor.
func (l *resultLog) compactDueLocked() bool {
	return !l.failed && l.size-l.live > max(l.live, compactFloor)
}

// rewriteLocked replaces the log with recs, the table's live entry records:
// temp file, fsync, rename. nil means the new file is in place; syncDir then
// makes the rename durable.
func (l *resultLog) rewriteLocked(recs []byte) error {
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
	l.f, l.size, l.live = f, int64(len(recs)), int64(len(recs))
	return nil
}

// syncDir makes the rename of a rewrite durable.
func (l *resultLog) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// commit blocks until b's fsync has returned, running it if no committer is
// running, and returns how many records that fsync carried. A committer runs
// compact after its fsync, before it hands the role on.
func (l *resultLog) commit(b *logBatch, compact func()) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !b.done {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		cur := l.open
		l.open, l.syncing = new(logBatch), true
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
