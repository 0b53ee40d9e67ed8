package wkb_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/geomtest"
	"repro/internal/wkb"
)

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; {
		p := geomtest.RandomPolygon(rng, 30)
		if p == nil {
			continue
		}
		trial++
		rec := wkb.Marshal(p)
		if len(rec) != wkb.Size(p) {
			t.Fatalf("Marshal wrote %d bytes, Size says %d", len(rec), wkb.Size(p))
		}
		// Append onto a non-empty buffer writes the same record after it.
		if buf := wkb.Append([]byte("head"), p); string(buf) != "head"+string(rec) {
			t.Fatalf("Append after a prefix differs from Marshal")
		}
		got, err := wkb.Unmarshal(rec)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got.Area() != p.Area() || got.NumVertices() != p.NumVertices() {
			t.Fatalf("round trip changed polygon: %d/%d vs %d/%d",
				got.Area(), got.NumVertices(), p.Area(), p.NumVertices())
		}
		for i, v := range p.Vertices() {
			if got.Vertices()[i] != v {
				t.Fatalf("vertex %d: %v != %v", i, got.Vertices()[i], v)
			}
		}
	}
}

func TestRoundTripNegativeCoords(t *testing.T) {
	p := geom.MustPolygon([]geom.Point{{X: -10, Y: -10}, {X: -5, Y: -10}, {X: -5, Y: -3}, {X: -10, Y: -3}})
	got, err := wkb.Unmarshal(wkb.Marshal(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Area() != 35 {
		t.Fatalf("area = %d", got.Area())
	}
}

func TestUnmarshalErrors(t *testing.T) {
	valid := wkb.Marshal(geom.Rect(0, 0, 4, 4))

	truncated := valid[:10]
	if _, err := wkb.Unmarshal(truncated); err == nil {
		t.Fatal("truncated accepted")
	}

	badOrder := append([]byte{}, valid...)
	badOrder[0] = 0
	if _, err := wkb.Unmarshal(badOrder); err == nil {
		t.Fatal("bad byte order accepted")
	}

	badType := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(badType[1:], 99)
	if _, err := wkb.Unmarshal(badType); err == nil {
		t.Fatal("bad geometry type accepted")
	}

	badLen := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(badLen[9:], 100)
	if _, err := wkb.Unmarshal(badLen); err == nil {
		t.Fatal("bad point count accepted")
	}

	// Non-integral coordinate.
	frac := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(frac[13:], math.Float64bits(1.5))
	if _, err := wkb.Unmarshal(frac); err == nil {
		t.Fatal("fractional coordinate accepted")
	}

	// Unclosed ring: change the closing point.
	open := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(open[len(open)-16:], math.Float64bits(99))
	if _, err := wkb.Unmarshal(open); err == nil {
		t.Fatal("unclosed ring accepted")
	}
}

func TestUnmarshalValidates(t *testing.T) {
	// Hand-build WKB for a self-intersecting rectilinear loop; Unmarshal
	// must run full validation and reject it.
	vs := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 3, Y: 2}, {X: 1, Y: 2}, {X: 1, Y: -1}, {X: 0, Y: -1}}
	data := make([]byte, 13+(len(vs)+1)*16)
	data[0] = 1
	binary.LittleEndian.PutUint32(data[1:], 3)
	binary.LittleEndian.PutUint32(data[5:], 1)
	binary.LittleEndian.PutUint32(data[9:], uint32(len(vs)+1))
	off := 13
	for i := 0; i <= len(vs); i++ {
		v := vs[i%len(vs)]
		binary.LittleEndian.PutUint64(data[off:], math.Float64bits(float64(v.X)))
		binary.LittleEndian.PutUint64(data[off+8:], math.Float64bits(float64(v.Y)))
		off += 16
	}
	if _, err := wkb.Unmarshal(data); err == nil {
		t.Fatal("self-intersecting polygon accepted")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := geomtest.RandomPolygon(rng, 24)
		if p == nil {
			return true
		}
		got, err := wkb.Unmarshal(wkb.Marshal(p))
		return err == nil && got.Area() == p.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMustUnmarshalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid data")
		}
	}()
	wkb.MustUnmarshal([]byte{1, 2, 3})
}
