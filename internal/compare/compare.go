// Package compare is the cross-dataset comparison subsystem: the layer that
// opens the paper's headline workload — validating one segmentation
// algorithm's output against another's over the same pathology images — on
// top of the persistent dataset store.
//
// A pairwise comparison takes two stored datasets, pairs their tiles by
// (image, tile) key (the intersection of the two tile indexes; tiles present
// on only one side are reported, never silently dropped), and compares the
// first dataset's set-A polygons against the second dataset's set-B polygons
// tile by tile. The pairing is exposed as a lazy scheduler task source whose
// workers materialize only the tile pairs they take from the two segment files,
// so a cross job over two large stored datasets never holds either dataset
// whole in memory. With dataset_a == dataset_b the comparison degenerates
// exactly — bit for bit — to the dataset's own embedded A-vs-B job.
//
// On top of pairwise jobs, matrix.go orchestrates K-way matrix runs: all
// K·(K−1)/2 unordered dataset pairs as one cancellable run,
// deduplicated through the service's content-hash result cache and fanned
// out with bounded concurrency, aggregated into a symmetric similarity
// matrix with per-cell status.
package compare

import (
	"errors"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/store"
)

// TileKey identifies one tile within a dataset.
type TileKey struct {
	Image string `json:"image,omitempty"`
	Tile  int    `json:"tile"`
}

// MatchedPair is one cross-comparison tile pair: indexes into the two
// datasets' manifests whose tiles carry the same (image, tile) key.
type MatchedPair struct {
	A, B int
}

// Match is the outcome of pairing two datasets' tile indexes: the matched
// pairs in canonical key order, plus the keys present on only one side.
type Match struct {
	Pairs []MatchedPair
	OnlyA []TileKey
	OnlyB []TileKey
}

// MatchManifests pairs two datasets' tiles by (image, tile) key. Both
// manifests hold their tiles in canonical key order (the store sorts at
// commit and re-sorts at recovery), so the pairing is a linear merge join.
func MatchManifests(a, b *store.Manifest) Match {
	var m Match
	i, j := 0, 0
	for i < len(a.Tiles) && j < len(b.Tiles) {
		ta, tb := a.Tiles[i], b.Tiles[j]
		switch {
		case ta.Image == tb.Image && ta.Tile == tb.Tile:
			m.Pairs = append(m.Pairs, MatchedPair{A: i, B: j})
			i++
			j++
		case ta.Image < tb.Image || (ta.Image == tb.Image && ta.Tile < tb.Tile):
			m.OnlyA = append(m.OnlyA, TileKey{Image: ta.Image, Tile: ta.Tile})
			i++
		default:
			m.OnlyB = append(m.OnlyB, TileKey{Image: tb.Image, Tile: tb.Tile})
			j++
		}
	}
	for ; i < len(a.Tiles); i++ {
		m.OnlyA = append(m.OnlyA, TileKey{Image: a.Tiles[i].Image, Tile: a.Tiles[i].Tile})
	}
	for ; j < len(b.Tiles); j++ {
		m.OnlyB = append(m.OnlyB, TileKey{Image: b.Tiles[j].Image, Tile: b.Tiles[j].Tile})
	}
	return m
}

// ErrNoSharedTiles rejects a cross comparison over datasets with disjoint
// tile indexes.
var ErrNoSharedTiles = errors.New("compare: datasets share no tile keys")

// OpenPair opens a cross comparison over the store and returns its job
// label, task source, and tile match. It is the one construction path for
// both the HTTP server and the facade. A self-comparison (idA == idB)
// returns the dataset's own single-dataset source: the cross semantics
// degenerate to the embedded A-vs-B job exactly, and the single source
// reads each tile once where the cross reader would read and digest-verify
// it twice. An empty intersection fails with ErrNoSharedTiles (wrapping the
// per-side unmatched counts in the message).
func OpenPair(st *store.Store, idA, idB string) (name string, src sched.TaskSource, m Match, self bool, err error) {
	dsA, err := st.OpenDataset(idA)
	if err != nil {
		return "", nil, Match{}, false, fmt.Errorf("dataset_a: %w", err)
	}
	if idA == idB {
		return dsA.Manifest().DisplayName(), dsA.Source(),
			MatchManifests(dsA.Manifest(), dsA.Manifest()), true, nil
	}
	dsB, err := st.OpenDataset(idB)
	if err != nil {
		return "", nil, Match{}, false, fmt.Errorf("dataset_b: %w", err)
	}
	csrc, m := NewSource(dsA, dsB)
	if len(m.Pairs) == 0 {
		return "", nil, m, false, fmt.Errorf(
			"%w (%d tiles only in dataset_a, %d only in dataset_b)",
			ErrNoSharedTiles, len(m.OnlyA), len(m.OnlyB))
	}
	name = dsA.Manifest().DisplayName() + " vs " + dsB.Manifest().DisplayName()
	return name, csrc, m, false, nil
}

// Source is a lazy scheduler task source over the matched tile pairs of two
// stored datasets: workers materialize decoded polygon pairs through the
// store's cross reader (its decoded-tile cache, else a digest-verified read
// of the two segment files).
type Source struct {
	r     *store.CrossReader
	pairs []MatchedPair
}

// NewSource pairs the two datasets' tiles and returns the task source over
// the matched pairs plus the full match report. A source over an empty
// intersection is returned too (Len 0); callers decide whether that is an
// error.
func NewSource(a, b *store.Dataset) (*Source, Match) {
	m := MatchManifests(a.Manifest(), b.Manifest())
	return &Source{
		r:     store.NewCrossReader(a, b),
		pairs: m.Pairs,
	}, m
}

// Len returns the matched tile-pair count.
func (s *Source) Len() int { return len(s.pairs) }

// PolyTask materializes pair i as pipeline input.
func (s *Source) PolyTask(i int) (pipeline.PolyTask, error) {
	return s.r.PolyTask(s.pairs[i].A, s.pairs[i].B)
}
