package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rec is one replayed record.
type rec struct {
	kind    byte
	payload string
}

// collect returns an apply that appends every record to *got.
func collect(got *[]rec) func(byte, []byte, int64) error {
	return func(kind byte, payload []byte, _ int64) error {
		*got = append(*got, rec{kind, string(payload)})
		return nil
	}
}

// frames returns recs framed, back to back, and where each starts.
func frames(recs []rec) (raw []byte, offs []int) {
	for _, r := range recs {
		offs = append(offs, len(raw))
		raw = append(raw, Frame(r.kind, []byte(r.payload))...)
	}
	return raw, offs
}

var sample = []rec{{'a', "first"}, {'b', ""}, {'a', strings.Repeat("x", 300)}, {'c', "last"}}

func TestFrameReplayRoundTrip(t *testing.T) {
	raw, _ := frames(sample)
	var got []rec
	end, torn := Replay(raw, collect(&got), func(off int64, err error) { t.Fatalf("skip at %d: %v", off, err) })
	if end != int64(len(raw)) || torn != nil {
		t.Fatalf("replay ended at %d of %d: %v", end, len(raw), torn)
	}
	if fmt.Sprint(got) != fmt.Sprint(sample) {
		t.Fatalf("replayed %v, want %v", got, sample)
	}
}

// TestReplayDamage: a flipped byte or an apply error skips one record with
// its offset; a cut record, a flipped last record or an unusable header
// ends the usable log there.
func TestReplayDamage(t *testing.T) {
	raw, offs := frames(sample)
	for _, tc := range []struct {
		name    string
		damage  func(raw []byte) []byte
		apply   func(byte, []byte, int64) error
		want    []rec
		skipped []int64
		end     int
		torn    error
	}{
		{"flipped byte", func(raw []byte) []byte { raw[offs[2]+20] ^= 1; return raw }, nil,
			[]rec{sample[0], sample[1], sample[3]}, []int64{int64(offs[2])}, len(raw), nil},
		{"apply error", func(raw []byte) []byte { return raw }, func(kind byte, _ []byte, _ int64) error {
			if kind == 'b' {
				return errors.New("no b here")
			}
			return nil
		}, []rec{sample[0], sample[2], sample[3]}, []int64{int64(offs[1])}, len(raw), nil},
		{"cut record", func(raw []byte) []byte { return raw[:offs[3]+5] }, nil,
			sample[:3], nil, offs[3], errTorn},
		{"flipped last record", func(raw []byte) []byte { raw[len(raw)-1] ^= 1; return raw }, nil,
			sample[:3], nil, offs[3], errChecksum},
		{"zero length", func(raw []byte) []byte { copy(raw[offs[2]:], make([]byte, 4)); return raw }, nil,
			sample[:2], nil, offs[2], errHeader},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []rec
			apply := collect(&got)
			if tc.apply != nil {
				inner := apply
				apply = func(kind byte, payload []byte, n int64) error {
					if err := tc.apply(kind, payload, n); err != nil {
						return err
					}
					return inner(kind, payload, n)
				}
			}
			var skipped []int64
			end, torn := Replay(tc.damage(bytes.Clone(raw)), apply, func(off int64, err error) { skipped = append(skipped, off) })
			if fmt.Sprint(got) != fmt.Sprint(tc.want) || fmt.Sprint(skipped) != fmt.Sprint(tc.skipped) {
				t.Fatalf("replayed %v skipping %v, want %v skipping %v", got, skipped, tc.want, tc.skipped)
			}
			if end != int64(tc.end) || !errors.Is(torn, tc.torn) {
				t.Fatalf("usable log ends at %d (%v), want %d (%v)", end, torn, tc.end, tc.torn)
			}
		})
	}
}

// TestOpenCutsTornTail: Open reports a torn tail to skip, cuts it off, and
// a record appended after it replays on the next Open.
func TestOpenCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	raw, offs := frames(sample)
	if err := os.WriteFile(path, raw[:offs[3]+3], 0o644); err != nil {
		t.Fatal(err)
	}
	var got []rec
	var reasons []string
	l, err := Open(path, collect(&got), func(off int64, err error) { reasons = append(reasons, fmt.Sprint(off, err)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(reasons) != 1 || !strings.Contains(reasons[0], "torn tail") || l.size != int64(offs[3]) {
		t.Fatalf("open replayed %d records, reasons %q, size %d", len(got), reasons, l.size)
	}
	b, err := l.Append(Frame('d', []byte("after")))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := l.Commit(b, func() {}); n != 1 || err != nil {
		t.Fatalf("commit carried %d records: %v", n, err)
	}
	got = nil
	if _, err := Open(path, collect(&got), func(off int64, err error) { t.Fatalf("skip at %d: %v", off, err) }); err != nil {
		t.Fatal(err)
	}
	if want := append(sample[:3:3], rec{'d', "after"}); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopened to %v, want %v", got, want)
	}
}

// TestCommitsShareFsyncs: while a committer holds its role, every writer
// appends and waits; none returns before an fsync covering its record, and
// one fsync then carries them all.
func TestCommitsShareFsyncs(t *testing.T) {
	const n = 32
	path := filepath.Join(t.TempDir(), "test.log")
	l, err := Open(path, collect(new([]rec)), func(int64, error) {})
	if err != nil {
		t.Fatal(err)
	}
	var owner sync.Mutex // the owner's lock, which Append belongs to
	appendRec := func(payload string) *Batch {
		owner.Lock()
		defer owner.Unlock()
		b, err := l.Append(Frame('a', []byte(payload)))
		if err != nil {
			t.Error(err)
		}
		return b
	}
	held := appendRec("held")
	holding, release, committed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(committed)
		l.Commit(held, func() { close(holding); <-release })
	}()
	<-holding

	var returned atomic.Int32
	var wg sync.WaitGroup
	carried := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			carried[i], _ = l.Commit(appendRec(fmt.Sprint(i)), func() {})
			returned.Add(1)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		appended := l.open.n
		l.mu.Unlock()
		if appended == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d records appended", appended, n)
		}
	}
	if r := returned.Load(); r != 0 {
		t.Fatalf("%d commits returned while the committer held its role", r)
	}
	close(release)
	wg.Wait()
	<-committed
	if syncs := l.Syncs(); syncs != 2 {
		t.Fatalf("%d fsyncs, want the held one and one for the %d writers", syncs, n)
	}
	for i, c := range carried {
		if c != n {
			t.Fatalf("writer %d's fsync carried %d records, want %d", i, c, n)
		}
	}
}

// TestRewrite: Open creates the log's directory; a rewrite leaves exactly
// the given records, live == size, no temp file, and later appends go to the
// new file.
func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "test.log")
	l, err := Open(path, collect(new([]rec)), func(int64, error) {})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := frames(sample)
	if _, err := l.Append(raw); err != nil {
		t.Fatal(err)
	}
	if l.CompactDue() {
		t.Fatal("compaction due below the floor")
	}
	kept, _ := frames(sample[3:])
	if err := l.Rewrite(kept); err != nil {
		t.Fatal(err)
	}
	if l.size != int64(len(kept)) || l.Live != l.size {
		t.Fatalf("after the rewrite size %d, live %d, want %d", l.size, l.Live, len(kept))
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left: %v", err)
	}
	b, err := l.Append(Frame('e', []byte("new")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(b, func() {}); err != nil {
		t.Fatal(err)
	}
	var got []rec
	if _, err := Open(path, collect(&got), func(off int64, err error) { t.Fatalf("skip at %d: %v", off, err) }); err != nil {
		t.Fatal(err)
	}
	if want := []rec{sample[3], {'e', "new"}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopened to %v, want %v", got, want)
	}

	l.Live = 0
	dead := bytes.Repeat([]byte{'z'}, CompactFloor)
	if _, err := l.Append(Frame('z', dead)); err != nil {
		t.Fatal(err)
	}
	if !l.CompactDue() {
		t.Fatalf("no compaction due with %d dead bytes", l.size-l.Live)
	}
}

// TestOpenErrorRefusesAppends: a log that cannot be opened refuses every
// append with the reason, and never asks for compaction.
func TestOpenErrorRefusesAppends(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(filepath.Join(file, "test.log"), collect(new([]rec)), func(int64, error) {})
	if err == nil {
		t.Fatal("opened a log under a regular file")
	}
	if _, aerr := l.Append(Frame('a', nil)); !errors.Is(aerr, err) {
		t.Fatalf("append = %v, want %v", aerr, err)
	}
	if l.CompactDue() {
		t.Fatal("a failed log asks for compaction")
	}
}
