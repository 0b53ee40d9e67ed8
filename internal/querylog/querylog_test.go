package querylog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openLog(t *testing.T, dir string, max int64) *Log {
	t.Helper()
	l, err := Open(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 0)
	defer l.Close()

	l.Append(Record{Kind: KindJob, ID: "j1", Outcome: OutcomeComputed,
		Datasets: []DatasetIO{{ID: "aaa", Tiles: 2, Bytes: 100}}, DurationMs: 5})
	l.Append(Record{Kind: KindJob, ID: "j2", Outcome: OutcomeCached,
		Datasets: []DatasetIO{{ID: "aaa"}}})
	l.Append(Record{Kind: KindPull, Outcome: OutcomePulled, Peer: "http://p:1",
		Datasets: []DatasetIO{{ID: "bbb", Tiles: 3, Bytes: 999}}})

	res, err := l.Query(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("got %d records", len(res.Records))
	}
	if res.Records[0].Schema != Schema || res.Records[0].Time == "" {
		t.Fatalf("record not stamped: %+v", res.Records[0])
	}

	byKind, _ := l.Query(Filter{Kind: KindPull})
	if len(byKind.Records) != 1 || byKind.Records[0].Peer != "http://p:1" {
		t.Fatalf("kind filter: %+v", byKind.Records)
	}
	byDS, _ := l.Query(Filter{Dataset: "aaa"})
	if len(byDS.Records) != 2 {
		t.Fatalf("dataset filter: %d", len(byDS.Records))
	}
	byOutcome, _ := l.Query(Filter{Outcome: OutcomeCached})
	if len(byOutcome.Records) != 1 || byOutcome.Records[0].ID != "j2" {
		t.Fatalf("outcome filter: %+v", byOutcome.Records)
	}
	limited, _ := l.Query(Filter{Limit: 1})
	if len(limited.Records) != 1 || limited.Records[0].Kind != KindPull {
		t.Fatalf("limit kept the wrong end: %+v", limited.Records)
	}
	future, _ := l.Query(Filter{Since: time.Now().Add(time.Hour)})
	if len(future.Records) != 0 {
		t.Fatalf("time filter leaked %d records", len(future.Records))
	}
	if l.Appended() != 3 || l.WriteErrors() != 0 {
		t.Fatalf("counters: appended=%d errs=%d", l.Appended(), l.WriteErrors())
	}
}

func TestReopenKeepsRecords(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 0)
	l.Append(Record{Kind: KindIngest, ID: "d1", Outcome: OutcomeIngested})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir, 0)
	defer l2.Close()
	l2.Append(Record{Kind: KindJob, ID: "j1", Outcome: OutcomeComputed})
	res, _ := l2.Query(Filter{})
	if len(res.Records) != 2 {
		t.Fatalf("restart lost records: %d", len(res.Records))
	}
}

func TestRotationBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	const max = 8 << 10
	l := openLog(t, dir, max)
	defer l.Close()
	long := strings.Repeat("x", 100)
	for i := 0; i < 1000; i++ {
		l.Append(Record{Kind: KindJob, ID: long, Outcome: OutcomeComputed})
	}
	var total int64
	for _, name := range []string{activeFile, rotatedFile} {
		if st, err := os.Stat(filepath.Join(dir, name)); err == nil {
			total += st.Size()
		}
	}
	if total > max+1024 {
		t.Fatalf("log grew to %d bytes, bound %d", total, max)
	}
	// Recent records survive rotation.
	res, _ := l.Query(Filter{})
	if len(res.Records) == 0 {
		t.Fatal("rotation dropped everything")
	}
}

func TestCorruptLinesSkippedWithReason(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 0)
	l.Append(Record{Kind: KindJob, ID: "ok", Outcome: OutcomeComputed})
	l.Close()

	f, err := os.OpenFile(filepath.Join(dir, activeFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{torn json\n")
	f.WriteString(`{"schema":"other/9","kind":"job","outcome":"computed"}` + "\n")
	f.WriteString(`{"schema":"sccg-qlog/1"}` + "\n")
	f.Close()

	l2 := openLog(t, dir, 0)
	defer l2.Close()
	res, err := l2.Query(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].ID != "ok" {
		t.Fatalf("records: %+v", res.Records)
	}
	want := map[string]int64{SkipBadJSON: 1, SkipBadSchema: 1, SkipBadRecord: 1}
	for k, v := range want {
		if res.Skipped[k] != v {
			t.Fatalf("skipped[%s] = %d, want %d (all: %v)", k, res.Skipped[k], v, res.Skipped)
		}
	}
}

func TestNilLogIsInert(t *testing.T) {
	var l *Log
	l.Append(Record{Kind: KindJob, Outcome: OutcomeComputed})
	if res, err := l.Query(Filter{}); err != nil || len(res.Records) != 0 {
		t.Fatal("nil query")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
