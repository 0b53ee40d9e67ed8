// Package pathologytest hands generated datasets to the rest of the system
// in the forms it takes data in: text tile tasks for the paper's pipeline,
// and a stored dataset. Tests import it; the daemon links none of it, since
// sccgd compares data that arrives from outside.
package pathologytest

import (
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/store"
)

// Tasks encodes d's tiles as pipeline text tasks, as segmentation emits them.
func Tasks(d *pathology.Dataset) []parser.FileTask {
	tasks := make([]parser.FileTask, len(d.Pairs))
	for i, tp := range d.Pairs {
		tasks[i] = parser.FileTask{Image: tp.Image, Tile: tp.Index, RawA: parser.Encode(tp.A), RawB: parser.Encode(tp.B)}
	}
	return tasks
}

// Ingest stores d under its spec name and returns the manifest.
func Ingest(st *store.Store, d *pathology.Dataset) (*store.Manifest, error) {
	tiles := make([]store.IngestTile, len(d.Pairs))
	for i, tp := range d.Pairs {
		tiles[i] = store.IngestTile{Image: tp.Image, Tile: tp.Index, A: tp.A, B: tp.B}
	}
	return st.Ingest(d.Spec.Name, tiles)
}
