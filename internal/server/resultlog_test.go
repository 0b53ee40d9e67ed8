package server

// Tests of the results log: group commit, replay after a crash cut or a
// flipped byte, replay reproducing the table after every kind of removal,
// and compaction.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/tilepass"
	"repro/internal/wal"
)

func logPath(dir string) string { return filepath.Join(dir, "cache", "results.log") }

// loggedEntries replays the results log under dir without touching it and
// returns the entries it leaves live.
func loggedEntries(t testing.TB, dir string) map[string]*resultEntry {
	t.Helper()
	raw, err := os.ReadFile(logPath(dir))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	rs := &resultStore{slots: make(map[string]*resultSlot)}
	wal.Replay(raw, rs.applyRecord, func(int64, error) {})
	live := make(map[string]*resultEntry)
	for key, slot := range rs.slots {
		live[key] = slot.entry
	}
	return live
}

// logRecords returns the kind, payload and offset of every record of the
// results log under dir, failing on a damaged one.
func logRecords(t *testing.T, dir string) (kinds []byte, payloads [][]byte, offs []int) {
	t.Helper()
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	end, torn := wal.Replay(raw, func(kind byte, payload []byte, n int64) error {
		kinds, payloads, offs = append(kinds, kind), append(payloads, payload), append(offs, off)
		off += int(n)
		return nil
	}, func(off int64, err error) { t.Fatalf("record at %d: %v", off, err) })
	if torn != nil || end != int64(len(raw)) {
		t.Fatalf("log ends at %d of %d: %v", end, len(raw), torn)
	}
	return kinds, payloads, offs
}

// appendLog appends raw records to the results log under dir.
func appendLog(t *testing.T, dir string, recs []byte) {
	t.Helper()
	f, err := os.OpenFile(logPath(dir), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(recs); err != nil {
		t.Fatal(err)
	}
}

// rewriteLog passes the payload of every record of the results log under dir
// through edit and writes the log back, each record framed with a fresh
// checksum.
func rewriteLog(t *testing.T, dir string, edit func(kind byte, payload []byte) []byte) {
	t.Helper()
	kinds, payloads, _ := logRecords(t, dir)
	var out []byte
	for i, kind := range kinds {
		out = append(out, wal.Frame(kind, edit(kind, payloads[i]))...)
	}
	if err := os.WriteFile(logPath(dir), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// recordOffsets returns where each record of the results log under dir starts.
func recordOffsets(t *testing.T, dir string) []int {
	t.Helper()
	_, _, offs := logRecords(t, dir)
	return offs
}

// cellEntry is an entry with a matrix cell's shape: tiles partials folding
// exactly to its aggregate.
func cellEntry(key string, tiles int) resultEntry {
	e := resultEntry{Key: key, Name: "cell", Saved: time.Now().UTC()}
	r := &e.Report
	for i := 0; i < tiles; i++ {
		tr := tilepass.TileRatio{Image: "img", Tile: i, RatioSum: 0.5 + float64(i%7)/8, Intersecting: 1 + i%3}
		r.TileRatios = append(r.TileRatios, tr)
		r.RatioSum += tr.RatioSum
		r.Intersecting += tr.Intersecting
	}
	r.Candidates = 2 * r.Intersecting
	r.Similarity = r.RatioSum / float64(r.Intersecting)
	return e
}

// tableEntries returns every entry rs holds, as its JSON.
func tableEntries(rs *resultStore) map[string]string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	m := make(map[string]string)
	for key, slot := range rs.slots {
		if slot.entry != nil {
			raw, _ := json.Marshal(slot.entry)
			m[key] = string(raw)
		}
	}
	return m
}

// logTable returns the entries the results log under dir leaves live, as
// their JSON.
func logTable(t *testing.T, dir string) map[string]string {
	t.Helper()
	m := make(map[string]string)
	for key, e := range loggedEntries(t, dir) {
		raw, _ := json.Marshal(e)
		m[key] = string(raw)
	}
	return m
}

// adoptEntry adopts e under its own key; it may run on any goroutine.
func adoptEntry(t testing.TB, rs *resultStore, e resultEntry) {
	t.Helper()
	if _, _, err := rs.adopt(e, e.Key); err != nil {
		t.Errorf("adopt %q: %v", e.Key, err)
	}
}

// TestConcurrentAdoptsShareFsyncs: 64 concurrent adopts each return only
// after an fsync covering their record, one fsync carries many of them, and
// a store opened right after they return holds all 64.
func TestConcurrentAdoptsShareFsyncs(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	rs := newResultStore(0, st, nil, new(metrics.Counter), slog.Default())
	l := rs.wal

	// Hold the committer's role, as an fsync in flight does: a commit whose
	// compaction step waits. Every adopter appends its record and waits.
	rs.mu.Lock()
	held, err := l.Append(wal.Frame(recDrop, []byte("hold")))
	rs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	holding, release, committed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(committed)
		l.Commit(held, func() { close(holding); <-release })
	}()
	<-holding
	var returned atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			adoptEntry(t, rs, foldedEntry(fmt.Sprintf("k-%02d", i)))
			returned.Add(1)
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		appended := len(loggedEntries(t, dir))
		if appended == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d records appended", appended, n)
		}
	}
	if r := returned.Load(); r != 0 {
		t.Fatalf("%d adopts returned before an fsync covered their record", r)
	}
	syncs := l.Syncs()
	close(release)
	wg.Wait()
	<-committed

	if syncs = l.Syncs() - syncs; syncs >= n {
		t.Fatalf("%d adopts took %d fsyncs; one fsync must carry many", n, syncs)
	}
	boot := newResultStore(0, st, nil, new(metrics.Counter), slog.Default())
	if _, durable := boot.counts(); durable != n {
		t.Fatalf("a store opened after the adopts holds %d entries, want %d", durable, n)
	}
}

// TestBootSkipsDamagedRecords: a log cut mid-record, or with a byte flipped
// inside a middle record, boots with every other record, one logged reason
// per skip, and a later append survives the next boot.
func TestBootSkipsDamagedRecords(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(raw []byte, offs []int) []byte
		lost   string // the key whose record the damage hits
		msg    string // what boot logs about it
	}{
		{"torn tail", func(raw []byte, offs []int) []byte {
			return raw[:offs[2]+(len(raw)-offs[2])/2]
		}, "k-2", "torn tail"},
		{"flipped byte", func(raw []byte, offs []int) []byte {
			raw[(offs[1]+offs[2])/2] ^= 0x20
			return raw
		}, "k-1", "skipped persisted result"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := testStoreAt(t, dir)
			rs := newResultStore(0, st, nil, new(metrics.Counter), slog.Default())
			for i := 0; i < 3; i++ {
				adoptEntry(t, rs, foldedEntry(fmt.Sprintf("k-%d", i)))
			}
			offs := recordOffsets(t, dir)
			if len(offs) != 3 {
				t.Fatalf("log holds %d records, want 3", len(offs))
			}
			raw, err := os.ReadFile(logPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(logPath(dir), tc.damage(raw, offs), 0o644); err != nil {
				t.Fatal(err)
			}

			var logs bytes.Buffer
			boot := newResultStore(0, st, nil, new(metrics.Counter), slog.New(slog.NewTextHandler(&logs, nil)))
			want := map[string]bool{"k-0": true, "k-1": true, "k-2": true}
			delete(want, tc.lost)
			for key := range want {
				if _, _, ok := boot.lookup(key); !ok {
					t.Fatalf("boot lost %s, which the damage did not touch", key)
				}
			}
			if _, _, ok := boot.lookup(tc.lost); ok {
				t.Fatalf("boot serves %s from a damaged record", tc.lost)
			}
			if got := strings.Count(logs.String(), "level=WARN"); got != 1 || !strings.Contains(logs.String(), tc.msg) {
				t.Fatalf("boot logged %d warnings, want one %q:\n%s", got, tc.msg, logs.String())
			}

			adoptEntry(t, boot, foldedEntry("k-3"))
			want["k-3"] = true
			again := newResultStore(0, st, nil, new(metrics.Counter), slog.Default())
			for key := range want {
				if _, _, ok := again.lookup(key); !ok {
					t.Fatalf("second boot lost %s", key)
				}
			}
			if _, durable := again.counts(); durable != len(want) {
				t.Fatalf("second boot holds %d entries, want %d", durable, len(want))
			}
		})
	}
}

// TestReplayReproducesTable: after each kind of removal the log replays,
// read-only and through a reboot, to exactly the in-process table.
func TestReplayReproducesTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		max  int
		run  func(t *testing.T, srv *Server, st *store.Store)
	}{
		{"adopt then drop", 0, func(t *testing.T, srv *Server, st *store.Store) {
			gone := ingestSpec(t, st, "gone", 71, 1)
			kept := ingestSpec(t, st, "kept", 72, 1)
			adoptEntry(t, srv.results, foldedEntry(datasetKey(gone.ID)))
			adoptEntry(t, srv.results, foldedEntry(datasetKey(kept.ID)))
			if n := srv.results.dropDataset(gone.ID); n != 1 {
				t.Fatalf("dropped %d keys, want 1", n)
			}
		}},
		{"delete cascade", 0, func(t *testing.T, srv *Server, st *store.Store) {
			gone := ingestSpec(t, st, "gone", 73, 1)
			kept := ingestSpec(t, st, "kept", 74, 1)
			for _, key := range []string{
				datasetKey(gone.ID), crossKey(gone.ID, kept.ID), crossKey(kept.ID, gone.ID), datasetKey(kept.ID),
			} {
				adoptEntry(t, srv.results, foldedEntry(key))
			}
			if err := st.Delete(gone.ID); err != nil {
				t.Fatal(err)
			}
		}},
		{"reset then adopt", 0, func(t *testing.T, srv *Server, st *store.Store) {
			adoptEntry(t, srv.results, foldedEntry("k-before"))
			srv.results.clear()
			adoptEntry(t, srv.results, foldedEntry("k-after"))
		}},
		{"eviction past the bound", 2, func(t *testing.T, srv *Server, st *store.Store) {
			for i := 0; i < 5; i++ {
				adoptEntry(t, srv.results, foldedEntry(fmt.Sprintf("k-%d", i)))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := testStoreAt(t, dir)
			srv, _, _ := newTestServer(t, sched.Config{}, Options{Store: st, CacheMaxEntries: tc.max})
			tc.run(t, srv, st)

			want := tableEntries(srv.results)
			if len(want) == 0 {
				t.Fatal("the sequence left an empty table")
			}
			if got := logTable(t, dir); !maps.Equal(got, want) {
				t.Fatalf("the log replays to %d entries, the table holds %d:\nlog   %v\ntable %v", len(got), len(want), keysOf(got), keysOf(want))
			}
			boot := newResultStore(tc.max, testStoreAt(t, dir), nil, new(metrics.Counter), slog.Default())
			if got := tableEntries(boot); !maps.Equal(got, want) {
				t.Fatalf("the rebooted table holds %v, the table %v", keysOf(got), keysOf(want))
			}
		})
	}
}

func keysOf(m map[string]string) []string {
	var keys []string
	for k := range m {
		keys = append(keys, strings.ReplaceAll(k, "\x00", "/"))
	}
	return keys
}

// TestCompactionKeepsLiveSet: once dead records outweigh live ones and the
// floor, the next commit rewrites the log to exactly the live records.
func TestCompactionKeepsLiveSet(t *testing.T) {
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	rs := newResultStore(0, st, nil, new(metrics.Counter), slog.Default())
	l := rs.wal
	for i := 0; i < 3; i++ {
		adoptEntry(t, rs, cellEntry(fmt.Sprintf("live-%d", i), 2000))
	}
	// Dead records past the floor and the live ones: each entry record is
	// about 100 KiB.
	for i := 0; !l.CompactDue(); i++ {
		key := fmt.Sprintf("dead-%d", i)
		adoptEntry(t, rs, cellEntry(key, 2000))
		rs.mu.Lock()
		rs.removeLocked(key)
		rs.mu.Unlock()
	}
	fi, err := os.Stat(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	before := fi.Size()
	adoptEntry(t, rs, cellEntry("live-3", 2000)) // its commit compacts

	if fi, err = os.Stat(logPath(dir)); err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= before || fi.Size() != l.Live {
		t.Fatalf("after the commit the log is %d bytes (%d before), %d live", fi.Size(), before, l.Live)
	}
	want := tableEntries(rs)
	if len(want) != 4 {
		t.Fatalf("table holds %d entries, want 4", len(want))
	}
	if got := logTable(t, dir); !maps.Equal(got, want) {
		t.Fatalf("the compacted log replays to %v, the table holds %v", keysOf(got), keysOf(want))
	}
	if _, err := os.Stat(logPath(dir) + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the rewrite's temp file is still there: %v", err)
	}
	boot := newResultStore(0, st, nil, new(metrics.Counter), slog.Default())
	if got := tableEntries(boot); !maps.Equal(got, want) {
		t.Fatalf("the rebooted table holds %v, the table %v", keysOf(got), keysOf(want))
	}
}

// TestLogBoundedAcrossResets: 200 matrices' worth of cells with DELETE /cache
// between them never leave the log above twice its live bytes plus the floor
// once their commits return.
func TestLogBoundedAcrossResets(t *testing.T) {
	const matrices, cells = 200, 15
	dir := t.TempDir()
	rs := newResultStore(0, testStoreAt(t, dir), nil, new(metrics.Counter), slog.Default())
	l := rs.wal
	for m := 0; m < matrices; m++ {
		var wg sync.WaitGroup
		for c := 0; c < cells; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				adoptEntry(t, rs, cellEntry(fmt.Sprintf("m%d-c%d", m, c), 32))
			}(c)
		}
		wg.Wait()
		fi, err := os.Stat(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		rs.mu.Lock()
		live := l.Live
		rs.mu.Unlock()
		if fi.Size() > 2*live+wal.CompactFloor {
			t.Fatalf("matrix %d: log %d bytes, live %d", m, fi.Size(), live)
		}
		rs.clear()
	}
}

// BenchmarkAdopt: adopts of a matrix cell's entry (32 tile partials) into a
// persistent store by 1 and 8 concurrent adopters, in µs a adopt and fsyncs
// a record.
func BenchmarkAdopt(b *testing.B) {
	for _, adopters := range []int{1, 8} {
		b.Run(fmt.Sprintf("adopters=%d", adopters), func(b *testing.B) {
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			rs := newResultStore(0, st, nil, new(metrics.Counter), slog.New(slog.NewTextHandler(io.Discard, nil)))
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < adopters; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						adoptEntry(b, rs, cellEntry(fmt.Sprintf("k-%d", i), 32))
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N), "us/adopt")
			b.ReportMetric(float64(rs.wal.Syncs())/float64(b.N), "fsyncs/record")
		})
	}
}
