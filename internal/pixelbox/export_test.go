package pixelbox

import "repro/internal/geom"

// RowRuns and Count open the row-run counter to the external test package,
// which needs internal/experiments (an importer of this package) as an oracle.
type RowRuns = rowRuns

func (r *rowRuns) Count(p, q *geom.Polygon, box geom.MBR) (inter, inP, inQ int64) {
	return r.count(p, q, box)
}
