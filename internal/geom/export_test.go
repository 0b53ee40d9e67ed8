package geom

// What FuzzBandCount, which lives in the external test package because it
// counts with internal/pixelbox, shares with FuzzNewPolygon.
var (
	FuzzVertices = fuzzVertices
	EncodeRaw    = encodeRaw
)

// MaxBandCrossings is the cap's factor, for the test that straddles it.
const MaxBandCrossings = maxBandCrossings
