package main

import (
	"encoding/base64"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/geom"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pipeline"
)

const (
	corpusTiles = 32
	poolSize    = 6
	// dropRate is the share of polygons each pool variant loses, so that no
	// two variants hold the same content and every cross cell differs.
	dropRate = 0.05
	// baseImage labels every tile of base and of the pool: variants share
	// tile keys, so any ordered pair of them is a valid cross job.
	baseImage = "bench"
)

// tile is one image tile as the benchmark holds it: the polygons for the
// oracle and the layer suite, and their text as base64 for request bodies.
type tile struct {
	index    int
	a, b     []*geom.Polygon
	a64, b64 string
}

// dataset is one generated dataset. The daemon only ever sees body().
type dataset struct {
	name  string
	image string
	tiles []tile
}

// corpus is everything a run's inputs derive from. It is a pure function of
// the seed.
type corpus struct {
	base *dataset
	pool [poolSize]*dataset
	// textBytes is the polygon-text size of base: the user bytes behind one
	// filler PUT, used for MB/s figures.
	textBytes int64
}

func newTile(index int, a, b []*geom.Polygon) tile {
	return tile{
		index: index, a: a, b: b,
		a64: base64.StdEncoding.EncodeToString(parser.Encode(a)),
		b64: base64.StdEncoding.EncodeToString(parser.Encode(b)),
	}
}

// newCorpus generates base and derives the pool from it. Generation is the
// expensive step (rasterising blobs); variants only drop and shift polygons.
func newCorpus(seed int64) *corpus {
	spec := pathology.Representative()
	spec.Name = baseImage
	spec.Tiles = corpusTiles
	spec.Seed += seed
	gen := pathology.Generate(spec)

	c := &corpus{base: &dataset{name: "base", image: baseImage}}
	for _, tp := range gen.Pairs {
		t := newTile(tp.Index, tp.A, tp.B)
		c.base.tiles = append(c.base.tiles, t)
		c.textBytes += int64(base64.StdEncoding.DecodedLen(len(t.a64)) + base64.StdEncoding.DecodedLen(len(t.b64)))
	}
	rng := rand.New(rand.NewSource(seed))
	for v := range c.pool {
		dx, dy := int32(rng.Intn(3)-1), int32(rng.Intn(3)-1)
		thin := func(polys []*geom.Polygon) []*geom.Polygon {
			out := make([]*geom.Polygon, 0, len(polys))
			for _, p := range polys {
				if rng.Float64() >= dropRate {
					out = append(out, p.Translate(dx, dy))
				}
			}
			return out
		}
		ds := &dataset{name: "v" + strconv.Itoa(v), image: baseImage}
		for _, t := range c.base.tiles {
			ds.tiles = append(ds.tiles, newTile(t.index, thin(t.a), thin(t.b)))
		}
		c.pool[v] = ds
	}
	return c
}

// filler returns base relabelled as image k. The tile digest covers the
// image name, so every k is a distinct content ID, while polygons and tile
// order — and with them the similarity fold — are exactly base's: one
// oracle value covers every filler. (Translating the polygons instead would
// reorder the Hilbert R-tree leaves and change the low bits of the sum.)
func (c *corpus) filler(k int) *dataset {
	return &dataset{
		name:  fmt.Sprintf("filler-%04d", k),
		image: fmt.Sprintf("filler-%04d", k),
		tiles: c.base.tiles,
	}
}

// body is the PUT /datasets request body: a JSON array of tile payloads.
func (d *dataset) body() []byte {
	n := 2
	for _, t := range d.tiles {
		n += len(t.a64) + len(t.b64) + len(d.image) + 64
	}
	out := make([]byte, 0, n)
	out = append(out, '[')
	for i, t := range d.tiles {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, `{"image":`...)
		out = strconv.AppendQuote(out, d.image)
		out = append(out, `,"tile":`...)
		out = strconv.AppendInt(out, int64(t.index), 10)
		out = append(out, `,"raw_a":"`...)
		out = append(out, t.a64...)
		out = append(out, `","raw_b":"`...)
		out = append(out, t.b64...)
		out = append(out, `"}`...)
	}
	return append(out, ']')
}

// answer is what the oracle and the daemon must agree on, bit for bit.
type answer struct {
	similarity   float64
	candidates   int
	intersecting int
}

func (a answer) equal(b answer) bool {
	return math.Float64bits(a.similarity) == math.Float64bits(b.similarity) &&
		a.candidates == b.candidates && a.intersecting == b.intersecting
}

// polyTasks pairs a's set A with b's set B tile by tile: the cross job
// (a, b), and with a == b the dataset's own job.
func polyTasks(a, b *dataset) []pipeline.PolyTask {
	tasks := make([]pipeline.PolyTask, len(a.tiles))
	for i := range a.tiles {
		tasks[i] = pipeline.PolyTask{Image: a.image, Tile: a.tiles[i].index, A: a.tiles[i].a, B: b.tiles[i].b}
	}
	return tasks
}

// oracle computes the reference answer in-process on the CPU-only pipeline.
func oracle(a, b *dataset) (answer, error) {
	res, err := pipeline.RunParsed(polyTasks(a, b), pipeline.Config{})
	if err != nil {
		return answer{}, fmt.Errorf("oracle %s x %s: %w", a.name, b.name, err)
	}
	return answer{res.Similarity, res.Candidates, res.Intersecting}, nil
}

// pair names an ordered (set A of pool[a], set B of pool[b]) comparison.
type pair struct{ a, b int }

// oracles computes the answers for the given pool pairs on two goroutines
// (the machine's cores) and returns them keyed by pair.
func (c *corpus) oracles(pairs []pair) (map[pair]answer, error) {
	out := make(map[pair]answer, len(pairs))
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		first error
	)
	next := make(chan pair)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				ans, err := oracle(c.pool[p.a], c.pool[p.b])
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				out[p] = ans
				mu.Unlock()
			}
		}()
	}
	for _, p := range pairs {
		next <- p
	}
	close(next)
	wg.Wait()
	return out, first
}

// selfPairs are the six single-dataset jobs.
func selfPairs() []pair {
	var ps []pair
	for i := 0; i < poolSize; i++ {
		ps = append(ps, pair{i, i})
	}
	return ps
}
