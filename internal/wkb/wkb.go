// Package wkb implements the serialized geometry format and calling
// convention of the SDBMS baseline. PostGIS stores geometries as serialized
// varlena values and every spatial function call pays to deserialize its
// arguments into GEOS objects — double-precision coordinates, ring
// construction and validity checking — before any geometry computation
// happens, and to serialize results back. That per-tuple protocol cost is a
// large, real part of what cross-comparing queries spend (§2.3), so the
// reproduction's baseline pays it too: tables store WKB-encoded polygons and
// the executor decodes (with full validation) on every operator call.
package wkb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// Format constants, following the WKB layout for a single-ring polygon:
// byte order marker, geometry type, ring count, point count, points as
// float64 pairs.
const (
	byteOrderLE = 1
	geomPolygon = 3
	headerBytes = 1 + 4 + 4 + 4
	pointBytes  = 16
)

// Marshal encodes a polygon as WKB (little-endian, single ring, closed:
// the first vertex is repeated at the end, as WKB requires).
func Marshal(p *geom.Polygon) []byte { return Append(make([]byte, 0, Size(p)), p) }

// Append appends Marshal(p) to dst, so a caller encoding a whole set sizes
// one buffer from Size and fills it without a record-sized allocation each.
func Append(dst []byte, p *geom.Polygon) []byte {
	vs := p.Vertices()
	off := len(dst)
	dst = slices.Grow(dst, Size(p))[:off+Size(p)]
	out := dst[off:]
	out[0] = byteOrderLE
	binary.LittleEndian.PutUint32(out[1:], geomPolygon)
	binary.LittleEndian.PutUint32(out[5:], 1)
	binary.LittleEndian.PutUint32(out[9:], uint32(len(vs)+1))
	pts := out[headerBytes:]
	for _, pt := range vs {
		binary.LittleEndian.PutUint64(pts, math.Float64bits(float64(pt.X)))
		binary.LittleEndian.PutUint64(pts[8:], math.Float64bits(float64(pt.Y)))
		pts = pts[pointBytes:]
	}
	copy(pts, out[headerBytes:headerBytes+pointBytes]) // the ring closes on its first vertex
	return dst
}

// Size returns len(Marshal(p)) without encoding — admission control sizes a
// dataset before deciding whether it may touch disk.
func Size(p *geom.Polygon) int { return headerBytes + (len(p.Vertices())+1)*pointBytes }

// Unmarshal decodes and fully validates a WKB polygon, the work a spatial
// function performs on each argument of each call. Coordinates must be
// integral and in int32 range (the pixel-grid domain).
func Unmarshal(data []byte) (*geom.Polygon, error) {
	n, err := RingVertices(data)
	if err != nil {
		return nil, err
	}
	return UnmarshalInto(geom.NewSlab(1, n), data)
}

// RingVertices checks a record's header and returns how many vertices the
// polygon has (the ring's points less the closing one), so a reader can size
// one slab for a whole set of records before decoding any of them.
func RingVertices(data []byte) (int, error) {
	if len(data) < headerBytes {
		return 0, fmt.Errorf("wkb: truncated header (%d bytes)", len(data))
	}
	if data[0] != byteOrderLE {
		return 0, fmt.Errorf("wkb: unsupported byte order %d", data[0])
	}
	if gt := binary.LittleEndian.Uint32(data[1:]); gt != geomPolygon {
		return 0, fmt.Errorf("wkb: unsupported geometry type %d", gt)
	}
	if rings := binary.LittleEndian.Uint32(data[5:]); rings != 1 {
		return 0, fmt.Errorf("wkb: expected 1 ring, got %d", rings)
	}
	npts := int(binary.LittleEndian.Uint32(data[9:]))
	if npts < 5 {
		return 0, fmt.Errorf("wkb: ring has %d points, need at least 5", npts)
	}
	if want := headerBytes + npts*pointBytes; len(data) != want {
		return 0, fmt.Errorf("wkb: length %d, want %d", len(data), want)
	}
	return npts - 1, nil
}

// UnmarshalInto is Unmarshal with the polygon, its vertices and its edge
// table placed in slab, which must have room for them.
func UnmarshalInto(slab *geom.Slab, data []byte) (*geom.Polygon, error) {
	n, err := RingVertices(data)
	if err != nil {
		return nil, err
	}
	vs := slab.Vertices(n)
	off := headerBytes
	for i := 0; i <= n; i++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:]))
		off += pointBytes
		xi, yi := int64(x), int64(y)
		if float64(xi) != x || float64(yi) != y {
			return nil, fmt.Errorf("wkb: non-integral coordinate (%v,%v)", x, y)
		}
		if xi < math.MinInt32 || xi > math.MaxInt32 || yi < math.MinInt32 || yi > math.MaxInt32 {
			return nil, fmt.Errorf("wkb: coordinate out of range (%v,%v)", x, y)
		}
		if i == n {
			// Closing point must equal the first.
			if xi != int64(vs[0].X) || yi != int64(vs[0].Y) {
				return nil, fmt.Errorf("wkb: ring not closed")
			}
			break
		}
		vs[i] = geom.Point{X: int32(xi), Y: int32(yi)}
	}
	// Full validation — rectilinearity, simplicity — the robustness work a
	// general-purpose geometry library performs before overlay.
	return slab.Add(vs)
}

// MustUnmarshal is Unmarshal that panics on error, for callers that encoded
// the data themselves.
func MustUnmarshal(data []byte) *geom.Polygon {
	p, err := Unmarshal(data)
	if err != nil {
		panic(err)
	}
	return p
}
