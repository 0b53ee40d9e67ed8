package parser_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/geomtest"
	"repro/internal/parser"
	"repro/internal/pathology"
)

func TestEncodeParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var polys []*geom.Polygon
	for len(polys) < 40 {
		if p := geomtest.RandomPolygon(rng, 30); p != nil {
			polys = append(polys, p)
		}
	}
	data := parser.Encode(polys)
	got, err := parser.Parse(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != len(polys) {
		t.Fatalf("parsed %d polygons, want %d", len(got), len(polys))
	}
	for i := range polys {
		a, b := polys[i].Vertices(), got[i].Vertices()
		if len(a) != len(b) {
			t.Fatalf("polygon %d vertex count %d != %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("polygon %d vertex %d: %v != %v", i, j, b[j], a[j])
			}
		}
		if got[i].Area() != polys[i].Area() {
			t.Fatalf("polygon %d area mismatch", i)
		}
	}
}

func TestParseNegativeCoordinates(t *testing.T) {
	p := geom.MustPolygon([]geom.Point{{X: -5, Y: -5}, {X: -2, Y: -5}, {X: -2, Y: -1}, {X: -5, Y: -1}})
	data := parser.Encode([]*geom.Polygon{p})
	got, err := parser.Parse(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got[0].Area() != 12 {
		t.Fatalf("area = %d", got[0].Area())
	}
}

func TestParseEmpty(t *testing.T) {
	got, err := parser.Parse(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %d polys", err, len(got))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"garbage", "hello world\n"},
		{"truncated", "0 POLYGON ((0 0,2 0,2 2"},
		{"bad keyword", "0 POLYGONE ((0 0,2 0,2 2,0 2))\n"},
		{"missing y", "0 POLYGON ((0 ,2 0,2 2,0 2))\n"},
		{"diagonal polygon", "0 POLYGON ((0 0,2 2,4 0,2 -2))\n"},
		{"trailing junk", "0 POLYGON ((0 0,2 0,2 2,0 2))x\n"},
		{"letters in digits", "0 POLYGON ((0 0,2a 0,2 2,0 2))\n"},
		// 2^32 and 2^64 used to wrap into range: the square at (0,0)-(10,10).
		{"coordinate wraps int32", "0 POLYGON ((4294967296 0,4294967306 0,4294967306 10,4294967296 10))\n"},
		{"coordinate wraps int64", "0 POLYGON ((18446744073709551616 0,18446744073709551626 0,18446744073709551626 10,18446744073709551616 10))\n"},
		{"one past int32", "0 POLYGON ((0 0,2147483648 0,2147483648 2,0 2))\n"},
		{"one below int32", "0 POLYGON ((0 0,-2147483649 0,-2147483649 2,0 2))\n"},
		{"sign without digits", "0 POLYGON ((- 0,2 0,2 2,- 2))\n"},
		// The last line is built before its missing newline is noticed, so
		// slab room must be sized for it: newlines undercount.
		{"no trailing newline", "0 POLYGON ((0 0,2 0,2 2,0 2))\n1 POLYGON ((0 0,2 0,2 2,0 2))"},
	}
	for _, c := range cases {
		if _, err := parser.Parse([]byte(c.input)); err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if !strings.Contains(err.Error(), "line") {
			t.Errorf("%s: error lacks line info: %v", c.name, err)
		}
	}
}

// TestParseInt32Extremes: the ends of the coordinate range are themselves in it.
func TestParseInt32Extremes(t *testing.T) {
	got, err := parser.Parse([]byte("0 POLYGON ((-2147483648 -2147483648,2147483647 -2147483648,2147483647 2147483647,-2147483648 2147483647))\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("extreme square: %v, %d polygons", err, len(got))
	}
	if m := got[0].MBR(); m.MinX != math.MinInt32 || m.MaxY != math.MaxInt32 {
		t.Fatalf("MBR = %v", m)
	}
}

func TestParseMultiLineErrorPosition(t *testing.T) {
	good := "0 POLYGON ((0 0,2 0,2 2,0 2))\n"
	bad := good + good + "2 POLYGON ((0 0,1 1,2 0,1 -1))\n"
	_, err := parser.Parse([]byte(bad))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line 3 error, got %v", err)
	}
}

func TestEncodeFormat(t *testing.T) {
	p := geom.Rect(1, 2, 3, 4)
	data := parser.Encode([]*geom.Polygon{p})
	want := "0 POLYGON ((1 2,3 2,3 4,1 4))\n"
	if string(data) != want {
		t.Fatalf("encoded %q, want %q", data, want)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	p := geom.Rect(0, 0, 2, 2)
	a := parser.Encode([]*geom.Polygon{p, p})
	b := parser.Encode([]*geom.Polygon{p, p})
	if !bytes.Equal(a, b) {
		t.Fatal("encode not deterministic")
	}
}

// BenchmarkParse parses the polygon text of one representative 32-tile
// dataset, set by set as PUT /datasets does.
func BenchmarkParse(b *testing.B) {
	spec := pathology.Representative()
	spec.Tiles = 32
	var sets [][]byte
	var text int64
	for _, tp := range pathology.Generate(spec).Pairs {
		for _, polys := range [][]*geom.Polygon{tp.A, tp.B} {
			raw := parser.Encode(polys)
			sets = append(sets, raw)
			text += int64(len(raw))
		}
	}
	b.SetBytes(text)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, raw := range sets {
			if _, err := parser.Parse(raw); err != nil {
				b.Fatal(err)
			}
		}
	}
}
