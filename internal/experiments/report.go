package experiments

// The experiments' measurement and reporting helpers: monotonic stopwatches,
// speedup and geometric-mean arithmetic (Fig. 12 reports the geometric mean
// of per-dataset speedups), and fixed-width table rendering for paper-style
// output.

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Stopwatch measures wall-clock spans.
type Stopwatch struct {
	start time.Time
}

// Start returns a running stopwatch.
func Start() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the time since Start.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }

// ElapsedSeconds returns the elapsed time in seconds.
func (s Stopwatch) ElapsedSeconds() float64 { return time.Since(s.start).Seconds() }

// Speedup returns base/observed, the convention of the paper's tables
// (larger is better for the observed system).
func Speedup(base, observed float64) float64 {
	if observed <= 0 {
		return math.Inf(1)
	}
	return base / observed
}

// GeoMean returns the geometric mean of positive values, NaN when the input
// is empty or contains non-positive entries.
func GeoMean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, v := range values {
		if v <= 0 {
			return math.NaN()
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values)))
}

// Mean returns the arithmetic mean, NaN when empty.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// StdDev returns the population standard deviation, NaN when empty.
func StdDev(values []float64) float64 {
	m := Mean(values)
	if math.IsNaN(m) {
		return m
	}
	var sq float64
	for _, v := range values {
		sq += (v - m) * (v - m)
	}
	return math.Sqrt(sq / float64(len(values)))
}

// Table renders fixed-width rows for terminal output.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
