package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpeedup(t *testing.T) {
	if got := Speedup(100, 10); got != 10 {
		t.Fatalf("speedup = %v", got)
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("zero observed should be +Inf")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4", got)
	}
	if got := GeoMean([]float64{5}); got != 5 {
		t.Fatalf("geomean single = %v", got)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Fatal("empty geomean should be NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Fatal("negative geomean should be NaN")
	}
}

func TestMeanStdDev(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(vals); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if sd := StdDev(vals); math.Abs(sd-2) > 1e-12 {
		t.Fatalf("stddev = %v", sd)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(StdDev(nil)) {
		t.Fatal("empty stats should be NaN")
	}
}

func TestStopwatch(t *testing.T) {
	sw := Start()
	time.Sleep(2 * time.Millisecond)
	if sw.Elapsed() < time.Millisecond {
		t.Fatal("stopwatch did not advance")
	}
	if sw.ElapsedSeconds() <= 0 {
		t.Fatal("seconds not positive")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "speedup", "time")
	tb.AddRow("PixelBox", 18.4, 3600*time.Millisecond)
	tb.AddRow("GEOS", 1.0, 64*time.Second)
	out := tb.String()
	if !strings.Contains(out, "PixelBox") || !strings.Contains(out, "18.40") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	// Columns align: header and separator share width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("misaligned header/separator:\n%s", out)
	}
}

func TestTableFloatFormats(t *testing.T) {
	tb := NewTable("v")
	tb.AddRow(0.00001)
	tb.AddRow(12345.6)
	tb.AddRow(math.NaN())
	out := tb.String()
	if !strings.Contains(out, "e-05") || !strings.Contains(out, "12346") || !strings.Contains(out, "n/a") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
}
