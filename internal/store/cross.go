package store

// Cross-dataset pair reading: the storage primitive behind the compare
// subsystem's dataset_a-vs-dataset_b jobs. A cross comparison pairs tiles by
// (image, tile) key across two stored datasets and compares the FIRST
// dataset's set-A polygons against the SECOND dataset's set-B polygons —
// with dataset_a == dataset_b this degenerates exactly to the dataset's own
// embedded A-vs-B comparison, which is what makes cross results directly
// comparable (and cacheable) against single-dataset jobs.

import "repro/internal/geom"

// CrossReader reads matched tile pairs across two stored datasets. Each
// ReadPair goes through the single-dataset read path — the decoded cache,
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

// ReadPair reads the cross pair (set A of the first dataset's tile ia, set B
// of the second dataset's tile ib). Like ReadTile's, the polygons may be
// shared with other readers.
func (r *CrossReader) ReadPair(ia, ib int) (setA, setB []*geom.Polygon, err error) {
	if setA, _, err = r.a.readSets(ia, true, false); err != nil {
		return nil, nil, err
	}
	if _, setB, err = r.b.readSets(ib, false, true); err != nil {
		return nil, nil, err
	}
	return setA, setB, nil
}
