package sched

import "fmt"

// Band is a job's QoS class. The scheduler runs one weighted-fair queue per
// band instead of a single FIFO, so a deep batch backlog — a
// large-K matrix fanning hundreds of cells — can no longer starve an ad-hoc
// interactive job, and heavy ingest coexists with heavy analytics on one
// daemon (the Polynesia HTAP framing, PAPERS.md).
type Band int

const (
	// BandInteractive is the default for ad-hoc jobs: highest weight, and on
	// a pool of two or more slots a reserved slot no other band may lease.
	BandInteractive Band = iota
	// BandBatch is bulk analytical work: matrix cells and anything a caller
	// explicitly marks batch. Lowest weight, but positive: WFQ never starves it.
	BandBatch
	// BandIngest is the "transactional" side of the HTAP split, weighted
	// between the two. No request form defaults to it: a job runs here only
	// when its request names the band.
	BandIngest
	// NumBands sizes per-band arrays.
	NumBands = 3
)

// String returns the lowercase wire name used by the HTTP API and metric
// labels.
func (b Band) String() string {
	switch b {
	case BandInteractive:
		return "interactive"
	case BandBatch:
		return "batch"
	case BandIngest:
		return "ingest"
	}
	return fmt.Sprintf("band(%d)", int(b))
}

// ParseBand maps a wire name to its band. Empty is not a band — callers
// decide their own default.
func ParseBand(s string) (Band, error) {
	switch s {
	case "interactive":
		return BandInteractive, nil
	case "batch":
		return BandBatch, nil
	case "ingest":
		return BandIngest, nil
	}
	return 0, fmt.Errorf("sched: unknown band %q (want interactive, batch, or ingest)", s)
}

// DefaultBandWeights is the scheduler's weighted-fair-sharing ratio between
// the bands: under full contention interactive gets 8 of every 13
// dispatches, ingest 3, batch 2. Batch throughput under an idle daemon is
// unaffected — weights only arbitrate when bands compete. Every weight is
// positive, so no non-empty band starves.
var DefaultBandWeights = [NumBands]int{BandInteractive: 8, BandBatch: 2, BandIngest: 3}

// BandCounts is one band's queue occupancy in a Stats snapshot.
type BandCounts struct {
	Queued  int
	Running int
}

// TenantCounts is one tenant's job occupancy in a Stats snapshot.
type TenantCounts struct {
	Queued  int
	Running int
}
