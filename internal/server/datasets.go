package server

// Dataset lifecycle endpoints over the content-addressed store:
//
//	PUT    /datasets        ingest a dataset (streaming; ?name= labels it)
//	GET    /datasets        list stored datasets
//	GET    /datasets/{id}   stat one dataset, tile index included
//	DELETE /datasets/{id}   remove a dataset
//
// PUT is the daemon's only way in for polygon text: jobs name the dataset it
// stores. Ingestion streams, on the request's own goroutine: the body is a
// JSON array of tile payloads (TilePayload, the shape GET /tiles/{n} serves)
// scanned one element at a time (tilescan.go); each tile's raw text is run
// through the existing parser and appended to the store's segment file
// before the next element is read, so a dataset bounded only by the
// request-size cap never materializes whole in memory. The response carries the content-addressed dataset ID:
// re-ingesting identical polygon sets (any tile order, any text formatting)
// yields the same ID and no second copy.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/geom"
	"repro/internal/parser"
	"repro/internal/querylog"
	"repro/internal/store"
	"repro/internal/tenant"
)

// DatasetTile is the wire form of one tile's manifest entry.
type DatasetTile struct {
	Image     string `json:"image,omitempty"`
	Tile      int    `json:"tile"`
	PolygonsA int    `json:"polygons_a"`
	PolygonsB int    `json:"polygons_b"`
	Bytes     int64  `json:"bytes"`
}

// DatasetResponse is the wire form of a stored dataset's manifest.
type DatasetResponse struct {
	ID           string        `json:"id"`
	Name         string        `json:"name,omitempty"`
	Created      time.Time     `json:"created"`
	Tiles        int           `json:"tiles"`
	Polygons     int64         `json:"polygons"`
	SegmentBytes int64         `json:"segment_bytes"`
	TileIndex    []DatasetTile `json:"tile_index,omitempty"`
}

func datasetResponse(man *store.Manifest, withTiles bool) DatasetResponse {
	resp := DatasetResponse{
		ID:           man.ID,
		Name:         man.Name,
		Created:      man.Created,
		Tiles:        len(man.Tiles),
		Polygons:     man.Polygons,
		SegmentBytes: man.SegmentBytes,
	}
	if withTiles {
		resp.TileIndex = make([]DatasetTile, len(man.Tiles))
		for i, ti := range man.Tiles {
			resp.TileIndex[i] = DatasetTile{
				Image:     ti.Image,
				Tile:      ti.Tile,
				PolygonsA: ti.CountA,
				PolygonsB: ti.CountB,
				Bytes:     ti.Bytes(),
			}
		}
	}
	return resp
}

// maxDatasetTiles bounds the tiles one PUT /datasets may carry.
const maxDatasetTiles = 65536

func (s *Server) handlePutDataset(w http.ResponseWriter, r *http.Request) {
	who := s.resolveTenant(r)
	ingestStart := time.Now()
	wtr, err := s.store.NewWriter(r.URL.Query().Get("name"))
	if err != nil {
		s.ingestFails.Inc()
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	committed := false
	defer func() {
		if !committed {
			wtr.Abort()
		}
	}()

	sc := newTileScanner(http.MaxBytesReader(w, r.Body, maxBodyBytes), scanBufBytes)
	if err := sc.open(); err != nil {
		s.fail(w, http.StatusBadRequest, errors.New("body must be a JSON array of tile payloads"))
		return
	}
	// Elements decode as TilePayload — the superset GET /tiles/{n} serves —
	// so tile reads re-PUT verbatim (the read-only counts are ignored) while
	// unknown fields still reject typos.
	var tp TilePayload
	for n := 0; ; n++ {
		more, err := sc.more()
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("malformed tile array: %w", err))
			return
		}
		if !more {
			break
		}
		if n >= maxDatasetTiles {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("at most %d tiles per dataset", maxDatasetTiles))
			return
		}
		if err := sc.tile(&tp); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("tile %d: %w", n, err))
			return
		}
		if len(tp.RawA) == 0 || len(tp.RawB) == 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("tile %d: raw_a and raw_b are required", n))
			return
		}
		a, b, err := parseTile(n, tp.RawA, tp.RawB)
		if err != nil {
			s.fail(w, http.StatusUnprocessableEntity, err)
			return
		}
		if err := wtr.AddTile(tp.Image, tp.Tile, a, b); err != nil {
			// Duplicate tiles (and nil polygons, which parsing precludes
			// here) are client faults; anything else is a segment write
			// failure on our side.
			code := http.StatusInternalServerError
			if errors.Is(err, store.ErrDuplicateTile) {
				code = http.StatusBadRequest
			} else {
				s.ingestFails.Inc()
			}
			s.fail(w, code, err)
			return
		}
		// Early tenant-quota check per tile: a stream that has already
		// written more bytes than the tenant may hold cannot recover, so
		// stop reading rather than buffering the whole body first. (Only
		// the tenant dimensions — the global budget check below may evict,
		// which should happen once, not per tile.)
		if aerr := s.admitTenantBytes(who, wtr.Bytes()); aerr != nil {
			s.failAdmission(w, who, aerr)
			return
		}
	}
	// Admission gates the commit: the exact segment size is known now, and
	// nothing has been published yet — a dataset that would overshoot the
	// tenant quota or the store budget (even after a synchronous targeted
	// sweep) is rejected with a structured 413/429 instead of committed.
	if aerr := s.admitIngest(who, wtr.Bytes()); aerr != nil {
		s.failAdmission(w, who, aerr)
		return
	}
	man, err := wtr.Commit()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, store.ErrEmpty) {
			code = http.StatusBadRequest
		} else {
			s.ingestFails.Inc()
		}
		s.fail(w, code, err)
		return
	}
	committed = true
	if err := s.recordIngest(who, man, ingestStart); err != nil {
		// The dataset is stored but its owner may not be durable: a retry
		// dedups and attributes it again.
		s.ingestFails.Inc()
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("record the dataset's owner: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, datasetResponse(man, true))
}

// parseTile parses upload tile n's two polygon texts; the error names the
// tile and the set.
func parseTile(n int, rawA, rawB []byte) (a, b []*geom.Polygon, err error) {
	if a, err = parser.Parse(rawA); err != nil {
		return nil, nil, fmt.Errorf("tile %d set A: %w", n, err)
	}
	if b, err = parser.Parse(rawB); err != nil {
		return nil, nil, fmt.Errorf("tile %d set B: %w", n, err)
	}
	return a, b, nil
}

// recordIngest is the bookkeeping after a PUT /datasets commit: the tenant's
// byte attribution, durable when it returns nil, then the ingest counter and
// the query-log record.
func (s *Server) recordIngest(who tenant.Quota, man *store.Manifest, start time.Time) error {
	if err := s.tusage.Attribute(who.Name, man.ID, man.SegmentBytes); err != nil {
		return err
	}
	s.ingests.Inc()
	if s.qlog != nil {
		s.qlog.Append(querylog.Record{
			Kind:       querylog.KindIngest,
			ID:         man.ID,
			Tenant:     who.Name,
			Datasets:   []querylog.DatasetIO{{ID: man.ID, Tiles: len(man.Tiles), Bytes: man.SegmentBytes}},
			DurationMs: float64(time.Since(start).Microseconds()) / 1000,
			Outcome:    querylog.OutcomeIngested,
		})
	}
	return nil
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	mans := s.store.List()
	out := make([]DatasetResponse, len(mans))
	for i, man := range mans {
		out[i] = datasetResponse(man, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *Server) handleStatDataset(w http.ResponseWriter, r *http.Request) {
	man, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, store.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, datasetResponse(man, true))
}

// TilePayload is the wire form of one stored tile's content: the two
// result sets re-encoded as canonical polygon text (base64 in JSON, the
// same shape PUT /datasets ingests), enabling client-side spot checks and
// dataset-to-dataset diffing.
type TilePayload struct {
	Index     int    `json:"index"`
	Image     string `json:"image,omitempty"`
	Tile      int    `json:"tile"`
	PolygonsA int    `json:"polygons_a"`
	PolygonsB int    `json:"polygons_b"`
	RawA      []byte `json:"raw_a"`
	RawB      []byte `json:"raw_b"`
}

// handleReadTile serves GET /datasets/{id}/tiles/{n}: tile n (an index into
// the dataset's canonical tile order, as listed by GET /datasets/{id}) read
// through the store — the decoded-tile cache, else the segment file's byte
// ranges, digest-verified — and re-encoded as polygon text.
func (s *Server) handleReadTile(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("tile index %q is not a number", r.PathValue("n")))
		return
	}
	ds, err := s.store.OpenDataset(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	man := ds.Manifest()
	if n < 0 || n >= len(man.Tiles) {
		s.fail(w, http.StatusNotFound,
			fmt.Errorf("dataset %s has tiles 0..%d, not %d", man.ID, len(man.Tiles)-1, n))
		return
	}
	a, b, err := ds.ReadTile(n)
	if err != nil {
		// The tile exists in the manifest but its bytes failed verification:
		// a storage fault, not a client one.
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	s.store.Touch(man.ID) // tile reads advance the retention clock
	ti := man.Tiles[n]
	writeJSON(w, http.StatusOK, TilePayload{
		Index:     n,
		Image:     ti.Image,
		Tile:      ti.Tile,
		PolygonsA: len(a),
		PolygonsB: len(b),
		RawA:      parser.Encode(a),
		RawB:      parser.Encode(b),
	})
}

// handleDeleteDataset removes a dataset. A dataset pinned by a queued or
// running job conflicts (409); ?force=true deletes it anyway, failing the
// jobs holding it with a clear "dataset deleted during job" error. Either
// way the delete cascades through the result store via the store's hook.
func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	force := r.URL.Query().Get("force") == "true" || r.URL.Query().Get("force") == "1"
	var err error
	if force {
		err = s.store.ForceDelete(id)
	} else {
		err = s.store.Delete(id)
	}
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, store.ErrNotFound):
			code = http.StatusNotFound
		case errors.Is(err, store.ErrPinned):
			code = http.StatusConflict
		}
		s.fail(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id, "forced": force})
}
