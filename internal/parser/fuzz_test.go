package parser

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse drives the FSM parser with arbitrary byte input. The contract
// under test: Parse must never panic — malformed segmentation output is an
// error, not a crash — and any input it accepts must round-trip through
// Encode back to the same polygons.
func FuzzParse(f *testing.F) {
	// Seed corpus: one valid line plus the malformed shapes segmentation
	// pipelines actually emit (truncation, bad keywords, stray separators,
	// sign/overflow games, missing newlines).
	seeds := []string{
		"0 POLYGON ((0 0,0 4,4 4,4 0))\n",
		"",
		"\n\n",
		"0",
		"0 ",
		"0 POLYGON",
		"0 POLYGON (",
		"0 POLYGON ((",
		"0 POLYGON ((0",
		"0 POLYGON ((0 ",
		"0 POLYGON ((0 0",
		"0 POLYGON ((0 0,",
		"0 POLYGON ((0 0))",
		"0 POLYGON ((0 0,0 4,4 4,4 0))",    // no trailing newline
		"0 POLYGON ((0 0,0 4,4 4,4 0)) \n", // trailing junk
		"0 polygon ((0 0,0 4,4 4,4 0))\n",
		"abc POLYGON ((0 0,0 4,4 4,4 0))\n",
		"0 POLYGON ((-0 -0,-0 4,4 4,4 -0))\n",
		"0 POLYGON ((- 0,0 4,4 4,4 0))\n",
		"0 POLYGON ((0 0,,0 4,4 4,4 0))\n",
		"0 POLYGON ((0 0 0,0 4,4 4,4 0))\n",
		"0 POLYGON ((99999999999999999999 0,0 4,4 4,4 0))\n",
		"0 POLYGON ((-99999999999999999999 0,0 4,4 4,4 0))\n",
		"0 POLYGON ((2147483647 2147483647,2147483647 2147483651,2147483651 2147483651,2147483651 2147483647))\n",
		"0 POLYGON ((4294967296 0,4294967306 0,4294967306 10,4294967296 10))\n",                                         // wraps int32
		"0 POLYGON ((18446744073709551616 0,18446744073709551626 0,18446744073709551626 10,18446744073709551616 10))\n", // wraps int64
		"0 POLYGON ((-2147483648 -2147483648,2147483647 -2147483648,2147483647 2147483647,-2147483648 2147483647))\n",
		"0 POLYGON ((0 0,0 4,4 4,4 0)))\n",
		"0 POLYGON ((0 0,1 1,2 2))\n", // non-rectilinear
		"0 POLYGON ((0 0,0 4))\n",     // too few vertices
		"0 POLYGON ((0 0,0 4,0 0,0 4))\n",
		"1 POLYGON ((5 5,5 9,9 9,9 5))\n2 POLYGON ((0 0,0 2,2 2,2 0))\n",
		"0 POLYGON\t((0 0,0 4,4 4,4 0))\n",
		"\x000 POLYGON ((0 0,0 4,4 4,4 0))\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		polys, err := Parse(data) // must not panic on any input
		if err != nil {
			return
		}
		// Every accepted vertex is the value its token spells: nothing wraps,
		// nothing is read out of thin air.
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		lines = slices.DeleteFunc(lines, func(l string) bool { return l == "" })
		if len(lines) != len(polys) {
			t.Fatalf("%d polygons from %d lines\ninput: %q", len(polys), len(lines), data)
		}
		for i, l := range lines {
			ring := l[strings.Index(l, "((")+2 : len(l)-2]
			pairs := strings.Split(ring, ",")
			if len(pairs) != polys[i].NumVertices() {
				t.Fatalf("line %d: %d vertices from %d pairs\ninput: %q", i+1, polys[i].NumVertices(), len(pairs), data)
			}
			for j, pair := range pairs {
				xs, ys, _ := strings.Cut(pair, " ")
				x, errX := strconv.ParseInt(xs, 10, 32)
				y, errY := strconv.ParseInt(ys, 10, 32)
				if v := polys[i].Vertices()[j]; errX != nil || errY != nil || int64(v.X) != x || int64(v.Y) != y {
					t.Fatalf("line %d vertex %d: parsed %v from %q (%v, %v)\ninput: %q", i+1, j, v, pair, errX, errY, data)
				}
			}
		}
		// Accepted input must round-trip: encoding the parsed polygons and
		// re-parsing yields the same geometry.
		enc := Encode(polys)
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("round-trip re-parse failed: %v\ninput: %q\nencoded: %q", err, data, enc)
		}
		if len(again) != len(polys) {
			t.Fatalf("round-trip count %d != %d", len(again), len(polys))
		}
		for i := range polys {
			a, b := polys[i].Vertices(), again[i].Vertices()
			if len(a) != len(b) {
				t.Fatalf("polygon %d: vertex count %d != %d", i, len(b), len(a))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("polygon %d vertex %d: %v != %v", i, j, b[j], a[j])
				}
			}
		}
	})
}
