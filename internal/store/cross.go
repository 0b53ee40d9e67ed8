package store

// Cross-dataset pair reading: the storage primitive behind the compare
// subsystem's dataset_a-vs-dataset_b jobs. A cross comparison pairs tiles by
// (image, tile) key across two stored datasets and compares the FIRST
// dataset's set-A polygons against the SECOND dataset's set-B polygons —
// with dataset_a == dataset_b this degenerates exactly to the dataset's own
// embedded A-vs-B comparison, which is what makes cross results directly
// comparable (and cacheable) against single-dataset jobs.

import (
	"repro/internal/geom"
	"repro/internal/tilepass"
)

// CrossReader reads matched tile pairs across two stored datasets. Each
// read goes through the single-dataset read path — the decoded cache,
// else a digest-verified read of the whole tile — but decodes, and caches,
// only the set actually compared from each side (set A from the first
// dataset, set B from the second).
type CrossReader struct {
	a, b *Dataset
}

// NewCrossReader returns a pair reader over the two datasets. The datasets
// may be the same handle (a self-comparison).
func NewCrossReader(a, b *Dataset) *CrossReader { return &CrossReader{a: a, b: b} }

// A returns the first dataset (the set-A side).
func (r *CrossReader) A() *Dataset { return r.a }

// B returns the second dataset (the set-B side).
func (r *CrossReader) B() *Dataset { return r.b }

// PolyTask reads the cross pair (set A of the first dataset's tile ia, set B
// of the second dataset's tile ib) as tile-pass input under the first tile's
// key: each set comes with the tree its own dataset's read built for it. Like
// ReadTile's, the polygons may be shared with other readers.
func (r *CrossReader) PolyTask(ia, ib int) (tilepass.PolyTask, error) {
	a, _, err := r.a.readSets(ia, true, false)
	if err != nil {
		return tilepass.PolyTask{}, err
	}
	_, b, err := r.b.readSets(ib, false, true)
	if err != nil {
		return tilepass.PolyTask{}, err
	}
	return polyTask(&r.a.man.Tiles[ia], a, b), nil
}

// ReadPair is PolyTask's two polygon sets alone.
func (r *CrossReader) ReadPair(ia, ib int) (setA, setB []*geom.Polygon, err error) {
	t, err := r.PolyTask(ia, ib)
	return t.A, t.B, err
}
