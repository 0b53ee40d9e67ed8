// Package parser implements the polygon-file text format and the parsing
// stage of the SCCG pipeline (paper §4.1, stage 1).
//
// Raw segmentation output arrives as text files, one polygon per line in a
// WKT-like syntax. Parsing transforms text into the binary polygon
// representation; the paper implements it as a finite state machine and
// notes (§4.2, citing Asanovic et al.) that FSMs parallelise poorly — the
// GPU port of the parser (modelled in internal/pipeline) only matches CPU
// speed, which is exactly what makes the parser stage a useful migration
// target when the GPU would otherwise idle.
//
// Parse is also the front half of PUT /datasets, where it is most of what an
// upload costs, so it touches each byte once and allocates per file, not per
// polygon: runs of digits are consumed inside their state, and the polygons of
// a file are built into slabs (geom.Slab) sized from a count of the file's
// ')' and ','. A coordinate is a decimal int32; anything beyond that range is
// an error with its line number, as every other malformed line is.
package parser

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/geom"
)

// FileTask is one image tile's two result sets as polygon files in the text
// format: the input of the paper's text pipeline.
type FileTask struct {
	Image string
	Tile  int
	RawA  []byte
	RawB  []byte
}

// Encode serialises polygons into the text format, one per line:
//
//	<id> POLYGON ((x y,x y,...))
//
// This is the raw-data form produced by segmentation pipelines and consumed
// by the parser stage.
func Encode(polys []*geom.Polygon) []byte {
	var out []byte
	for i, p := range polys {
		out = appendInt(out, int64(i))
		out = append(out, " POLYGON (("...)
		for j, v := range p.Vertices() {
			if j > 0 {
				out = append(out, ',')
			}
			out = appendInt(out, int64(v.X))
			out = append(out, ' ')
			out = appendInt(out, int64(v.Y))
		}
		out = append(out, "))\n"...)
	}
	return out
}

func appendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// parse states of the FSM.
type state uint8

const (
	stLineStart state = iota
	stID
	stKeyword
	// A coordinate is three states, X's then Y's in the same order: before
	// it, after its sign, inside its digits.
	stX
	stXSign
	stXDigits
	stY
	stYSign
	stYDigits
	stAfterPair
	stLineEnd
)

// Steps by which Parse provisions slab room; see builder.
const (
	slabStepPolygons = 1 << 12
	slabStepVertices = 1 << 16
)

// builder places the polygons of one Parse call in slabs (geom.Slab), where a
// constructor call per polygon would allocate four objects each. Room is
// sized from a bound on what the input can still build — one that holds for
// every input, since a line is built before the rest of the file is known to
// be well formed: a built polygon consumed two ')' and each of its vertices a
// ',' or the first of the two. On well-formed input the bound is exact and one
// slab holds the file. It is taken a step at a time, so input rejected on its
// first line costs one step however many ')' follow.
type builder struct {
	slab                   *geom.Slab
	polysFree, vertsFree   int // room left in slab
	polysBound, vertsBound int // what the input can still build
}

func newBuilder(data []byte) builder {
	closes := bytes.Count(data, []byte{')'}) / 2
	return builder{polysBound: closes, vertsBound: bytes.Count(data, []byte{','}) + closes}
}

// add validates verts as a polygon and keeps a copy of them.
func (b *builder) add(verts []geom.Point) (*geom.Polygon, error) {
	n := len(verts)
	if b.polysFree == 0 || b.vertsFree < n {
		b.polysFree = min(b.polysBound, slabStepPolygons)
		b.vertsFree = max(min(b.vertsBound, slabStepVertices), n)
		b.slab = geom.NewSlab(b.polysFree, b.vertsFree)
	}
	b.polysFree, b.polysBound = b.polysFree-1, b.polysBound-1
	b.vertsFree, b.vertsBound = b.vertsFree-n, b.vertsBound-n
	vs := b.slab.Vertices(n)
	copy(vs, verts)
	return b.slab.Add(vs)
}

// Parse runs the FSM over one polygon file and returns the decoded,
// validated polygons. Lines that decode into invalid polygons (too few
// vertices, non-rectilinear, self-intersecting) or carry a coordinate outside
// int32 are rejected with an error carrying the line number.
func Parse(data []byte) ([]*geom.Polygon, error) {
	bld := newBuilder(data)
	polys := make([]*geom.Polygon, 0, bld.polysBound)
	var stack [64]geom.Point
	verts := stack[:0]
	var cur int64
	var neg bool
	var x int32
	line := 1
	st := stLineStart
	kw := 0
	const keyword = " POLYGON (("

scan:
	for pos := 0; pos < len(data); pos++ {
		c := data[pos]
		switch st {
		case stLineStart:
			switch {
			case c >= '0' && c <= '9':
				st = stID
			case c == '\n':
				line++
			default:
				return nil, unexpected(line, pos, c)
			}
		case stID:
			switch {
			case c >= '0' && c <= '9':
				// skip id digits
			case c == ' ':
				st, kw = stKeyword, 1
			default:
				return nil, unexpected(line, pos, c)
			}
		case stKeyword:
			if kw >= len(keyword) || c != keyword[kw] {
				return nil, unexpected(line, pos, c)
			}
			kw++
			if kw == len(keyword) {
				st = stX
				verts = verts[:0]
			}
		case stX, stY:
			switch {
			case c == '-':
				neg, st = true, st+1
			case c >= '0' && c <= '9':
				neg, cur, st = false, int64(c-'0'), st+2
			default:
				return nil, unexpected(line, pos, c)
			}
		case stXSign, stYSign:
			if c < '0' || c > '9' {
				return nil, unexpected(line, pos, c)
			}
			cur, st = int64(c-'0'), st+1
		case stXDigits, stYDigits:
			// Most of a file is digits: the run is consumed here rather than
			// a byte per trip through the switch. cur stays within one past
			// int32's magnitude, so a longer run can neither wrap it nor be
			// truncated into range.
			for c >= '0' && c <= '9' {
				if cur = cur*10 + int64(c-'0'); cur > -math.MinInt32 {
					return nil, outOfRange(line, pos)
				}
				if pos++; pos == len(data) {
					break scan
				}
				c = data[pos]
			}
			v := cur
			if neg {
				v = -v
			} else if v > math.MaxInt32 {
				return nil, outOfRange(line, pos)
			}
			switch {
			case st == stXDigits && c == ' ':
				x, st = int32(v), stY
			case st == stYDigits && c == ',':
				verts = append(verts, geom.Point{X: x, Y: int32(v)})
				st = stX
			case st == stYDigits && c == ')':
				verts = append(verts, geom.Point{X: x, Y: int32(v)})
				st = stAfterPair
			default:
				return nil, unexpected(line, pos, c)
			}
		case stAfterPair:
			if c != ')' {
				return nil, unexpected(line, pos, c)
			}
			p, err := bld.add(verts)
			if err != nil {
				return nil, fmt.Errorf("parser: line %d: %w", line, err)
			}
			polys = append(polys, p)
			st = stLineEnd
		case stLineEnd:
			if c != '\n' {
				return nil, unexpected(line, pos, c)
			}
			line++
			st = stLineStart
		}
	}
	if st != stLineStart {
		return nil, fmt.Errorf("parser: truncated input at line %d", line)
	}
	return polys, nil
}

func unexpected(line, pos int, c byte) error {
	return fmt.Errorf("parser: line %d: unexpected %q at byte %d", line, c, pos)
}

func outOfRange(line, pos int) error {
	return fmt.Errorf("parser: line %d: coordinate outside int32 at byte %d", line, pos)
}
