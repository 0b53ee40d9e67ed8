package geom

// What FuzzBandCount, which lives in the external test package because it
// counts with internal/pixelbox, shares with FuzzNewPolygon.
var (
	FuzzVertices = fuzzVertices
	EncodeRaw    = encodeRaw
)

// MaxBandCrossings and MaxRowsPerBand are the caps' factors, for the tests
// that straddle them.
const (
	MaxBandCrossings = maxBandCrossings
	MaxRowsPerBand   = maxRowsPerBand
)

// WithoutRows returns a copy of p that keeps its band table but has no row
// masks, so that a test can walk the bands of a polygon that has both.
func WithoutRows(p *Polygon) *Polygon {
	c := *p
	c.rows = nil
	return &c
}
