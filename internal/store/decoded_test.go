package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/rtree"
	"repro/internal/tilepass"
)

// seededDataset generates a dataset whose tile keys depend only on name and
// tiles, so two seeds give a cross pair over shared keys.
func seededDataset(name string, seed int64, tiles int) *pathology.Dataset {
	spec := pathology.Representative()
	spec.Name, spec.Seed, spec.Tiles = name, seed, tiles
	return pathology.Generate(spec)
}

func ingestOpen(t *testing.T, s *Store, d *pathology.Dataset) *Dataset {
	t.Helper()
	man, err := ingestDataset(s, d)
	if err != nil {
		t.Fatalf("IngestDataset: %v", err)
	}
	ds, err := s.OpenDataset(man.ID)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	return ds
}

// oracle is the benchmark's reference: the CPU-only pipeline over polygons
// that never went near the store.
func oracle(t *testing.T, a, b *pathology.Dataset) tilepass.Result {
	t.Helper()
	tasks := make([]tilepass.PolyTask, len(a.Pairs))
	for i := range a.Pairs {
		tasks[i] = tilepass.PolyTask{Image: a.Pairs[i].Image, Tile: a.Pairs[i].Index, A: a.Pairs[i].A, B: b.Pairs[i].B}
	}
	return runParsed(t, tasks)
}

func runParsed(t *testing.T, tasks []tilepass.PolyTask) tilepass.Result {
	t.Helper()
	res, err := pipeline.RunParsed(tasks, pipeline.Config{})
	if err != nil {
		t.Fatalf("RunParsed: %v", err)
	}
	return res
}

func sameAnswer(t *testing.T, what string, got, want tilepass.Result) {
	t.Helper()
	if got.Similarity != want.Similarity || got.Candidates != want.Candidates || got.Intersecting != want.Intersecting {
		t.Fatalf("%s: (%v, %d, %d) != oracle (%v, %d, %d)", what,
			got.Similarity, got.Candidates, got.Intersecting, want.Similarity, want.Candidates, want.Intersecting)
	}
	if !reflect.DeepEqual(got.TileRatios, want.TileRatios) {
		t.Fatalf("%s: per-tile partials %v != oracle's %v", what, got.TileRatios, want.TileRatios)
	}
}

// sameOnEveryPath takes tasks as the store served them and checks that each
// carries its sets' trees, that joining them gives the candidate sequence of
// trees built on the spot, and that the job's bits — with the kept trees, as a
// raw PolyTask without them, and through the text path — are the oracle's,
// tile by tile.
func sameOnEveryPath(t *testing.T, what string, tasks []tilepass.PolyTask, want tilepass.Result) {
	t.Helper()
	raw := make([]tilepass.PolyTask, len(tasks))
	files := make([]pipeline.FileTask, len(tasks))
	for i, task := range tasks {
		if task.TreeA == nil || task.TreeB == nil || task.TreeA.Len() != len(task.A) || task.TreeB.Len() != len(task.B) {
			t.Fatalf("%s, tile %d: the store's task does not carry both sets' trees", what, i)
		}
		kept, _ := rtree.Join(task.TreeA, task.TreeB, nil)
		built, _ := rtree.Join(rtree.Index(task.A), rtree.Index(task.B), nil)
		if len(kept) == 0 || !reflect.DeepEqual(kept, built) {
			t.Fatalf("%s, tile %d: kept trees join %d candidates, rebuilt ones %d, or in another order", what, i, len(kept), len(built))
		}
		raw[i] = tilepass.PolyTask{Image: task.Image, Tile: task.Tile, A: task.A, B: task.B}
		files[i] = pipeline.FileTask{Image: task.Image, Tile: task.Tile, RawA: parser.Encode(task.A), RawB: parser.Encode(task.B)}
	}
	sameAnswer(t, what, runParsed(t, tasks), want)
	sameAnswer(t, what+", trees stripped", runParsed(t, raw), want)
	text, err := pipeline.Run(files, pipeline.Config{})
	if err != nil {
		t.Fatalf("%s, text path: %v", what, err)
	}
	sameAnswer(t, what+", text path", text, want)
}

func wantLookups(t *testing.T, s *Store, what string, hits, misses int64) {
	t.Helper()
	if h, m := s.decoded.hits.Load(), s.decoded.misses.Load(); h != hits || m != misses {
		t.Fatalf("%s: %d hits and %d misses so far, want %d and %d", what, h, m, hits, misses)
	}
}

// TestDecodedHitMatchesMissAndOracle: a self job and a cross pair answered
// from the segment file, and again from the decoded cache, both equal the
// oracle bit for bit and tile by tile — joining the trees kept with the sets,
// building them per run, and through the text path; the second pass is all
// hits and returns the first pass's very polygons and trees. What the store
// keeps carries band tables; what the parser builds does not, so the oracle
// (generated polygons) and the store's answers also hold tables to no tables.
func TestDecodedHitMatchesMissAndOracle(t *testing.T) {
	const tiles = 3
	x, y := seededDataset("slide", 1, tiles), seededDataset("slide", 2, tiles)
	s := openStore(t, t.TempDir())
	dx, dy := ingestOpen(t, s, x), ingestOpen(t, s, y)

	read := func(what string, task func(i int) (tilepass.PolyTask, error)) []tilepass.PolyTask {
		tasks := make([]tilepass.PolyTask, tiles)
		for i := range tasks {
			var err error
			if tasks[i], err = task(i); err != nil {
				t.Fatalf("%s(%d): %v", what, i, err)
			}
		}
		return tasks
	}
	self := func() []tilepass.PolyTask { return read("PolyTask", dx.Source().PolyTask) }
	cross := func() []tilepass.PolyTask {
		cr := NewCrossReader(dx, dy)
		return read("CrossReader.PolyTask", func(i int) (tilepass.PolyTask, error) { return cr.PolyTask(i, i) })
	}

	wantSelf, wantCross := oracle(t, x, x), oracle(t, x, y)
	miss := self()
	wantLookups(t, s, "first self pass", 0, 2*tiles)
	sameOnEveryPath(t, "self job, miss", miss, wantSelf)
	wantBands(t, "a set the store keeps", true, miss[0].A, miss[tiles-1].B)
	parsed, err := parser.Parse(parser.Encode(miss[0].A))
	if err != nil {
		t.Fatal(err)
	}
	wantBands(t, "a parsed set", false, parsed)
	wantBands(t, "the oracle's input", false, x.Pairs[0].A)
	hit := self()
	wantLookups(t, s, "second self pass", 2*tiles, 2*tiles)
	sameOnEveryPath(t, "self job, hit", hit, wantSelf)
	for i := range hit {
		if hit[i].A[0] != miss[i].A[0] || hit[i].B[0] != miss[i].B[0] || hit[i].TreeA != miss[i].TreeA || hit[i].TreeB != miss[i].TreeB {
			t.Fatalf("tile %d: the hit is not the set the miss decoded and indexed", i)
		}
		for k, p := range hit[i].A {
			if !equalVertices(p, x.Pairs[i].A[k]) {
				t.Fatalf("tile %d polygon %d differs from what was ingested", i, k)
			}
		}
	}

	// x's A sets are cached, y's B sets are not: a cross read decodes only
	// the side it compares.
	crossMiss := cross()
	sameOnEveryPath(t, "cross pair, miss", crossMiss, wantCross)
	wantLookups(t, s, "first cross pass", 3*tiles, 3*tiles)
	if _, sets := s.decoded.size(); sets != 3*tiles {
		t.Fatalf("%d sets cached, want x's A and B and y's B only (%d)", sets, 3*tiles)
	}
	crossHit := cross()
	sameOnEveryPath(t, "cross pair, hit", crossHit, wantCross)
	wantLookups(t, s, "second cross pass", 5*tiles, 3*tiles)

	// A cross task's trees come from two datasets: set A's is the one x's own
	// job joins, set B's the one y's own job joins.
	ySelf := read("PolyTask", dy.Source().PolyTask)
	for i := range crossHit {
		if crossHit[i].TreeA != hit[i].TreeA || crossMiss[i].TreeA != hit[i].TreeA {
			t.Fatalf("tile %d: the cross pair does not join the tree kept with x's set A", i)
		}
		if crossHit[i].TreeB != ySelf[i].TreeB || crossMiss[i].TreeB != ySelf[i].TreeB {
			t.Fatalf("tile %d: the cross pair does not join the tree kept with y's set B", i)
		}
	}
}

func wantBands(t *testing.T, what string, want bool, sets ...[]*geom.Polygon) {
	t.Helper()
	for _, set := range sets {
		for k, p := range set {
			if _, ok := p.Bands(); ok != want {
				t.Fatalf("%s: polygon %d has a band table: %v, want %v", what, k, ok, want)
			}
		}
	}
}

func equalVertices(p, q *geom.Polygon) bool {
	pv, qv := p.Vertices(), q.Vertices()
	if len(pv) != len(qv) {
		return false
	}
	for i := range pv {
		if pv[i] != qv[i] {
			return false
		}
	}
	return true
}

// TestDecodedEvictionHoldsByteBound: with the bound shrunk to three tiles'
// worth — trees counted — the accounted bytes never exceed it, always equal the
// sum over the entries actually held, and the survivors are the most recently
// read, served with the trees they were kept with; an evicted set's tree went
// with it and the next read builds another.
func TestDecodedEvictionHoldsByteBound(t *testing.T) {
	const tiles = 8
	s := openStore(t, t.TempDir())
	ds := ingestOpen(t, s, testDataset(t, tiles))

	var tileBytes [tiles]int64
	for i := range tileBytes {
		a, b, err := ds.load(&ds.man.Tiles[i], true, true) // sized as ReadTile's sets are, band tables, trees and all
		if err != nil {
			t.Fatal(err)
		}
		var treeBytes int64
		for _, set := range []*decodedSet{a, b} {
			if set.tree == nil || set.tree.Len() != len(set.polys) || set.tree.Bytes() < int64(len(set.polys))*int64(unsafe.Sizeof(rtree.Entry{})) {
				t.Fatalf("tile %d set %c: no tree over its %d polygons, or one of no size", i, set.key.set, len(set.polys))
			}
			slab, empty := geom.NewSlab(0, 0), rtree.Index(nil)
			if got := newDecodedSet(set.key, slab, set.polys, set.tree).bytes - newDecodedSet(set.key, slab, set.polys, empty).bytes; got != set.tree.Bytes()-empty.Bytes() {
				t.Fatalf("tile %d set %c: keeping the tree is accounted %d bytes more than an empty one, it holds %d more", i, set.key.set, got, set.tree.Bytes()-empty.Bytes())
			}
			treeBytes += set.tree.Bytes()
		}
		if tileBytes[i] = a.bytes + b.bytes; tileBytes[i]-treeBytes < ds.man.Tiles[i].Bytes() {
			t.Fatalf("tile %d: %d decoded bytes (%d of them trees) accounted for %d segment bytes", i, tileBytes[i], treeBytes, ds.man.Tiles[i].Bytes())
		}
	}
	s.decoded.max = tileBytes[5] + tileBytes[6] + tileBytes[7]

	var first [tiles]tilepass.PolyTask
	for i := 0; i < tiles; i++ {
		var err error
		if first[i], err = ds.Source().PolyTask(i); err != nil {
			t.Fatal(err)
		}
		var sum int64
		for el := s.decoded.order.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*decodedSet).bytes
		}
		if bytes, sets := s.decoded.size(); bytes != sum || bytes > s.decoded.max || sets != s.decoded.order.Len() {
			t.Fatalf("after tile %d: %d bytes accounted, %d held in %d/%d entries, bound %d",
				i, bytes, sum, sets, s.decoded.order.Len(), s.decoded.max)
		}
	}
	if bytes, sets := s.decoded.size(); sets != 6 || bytes != s.decoded.max {
		t.Fatalf("%d sets in %d bytes survive, want the last three tiles' six in %d", sets, bytes, s.decoded.max)
	}
	before := s.decoded.hits.Load()
	for _, i := range []int{5, 6, 7} {
		again, err := ds.Source().PolyTask(i)
		if err != nil {
			t.Fatal(err)
		}
		if again.TreeA != first[i].TreeA || again.TreeB != first[i].TreeB {
			t.Fatalf("tile %d survived but is served with other trees than it was kept with", i)
		}
	}
	if got := s.decoded.hits.Load() - before; got != 6 {
		t.Fatalf("re-reading the three newest tiles hit %d sets, want 6", got)
	}
	before = s.decoded.hits.Load()
	again, err := ds.Source().PolyTask(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.decoded.hits.Load() - before; got != 0 {
		t.Fatalf("the evicted oldest tile hit %d sets", got)
	}
	if again.TreeA == first[0].TreeA || again.TreeB == first[0].TreeB {
		t.Fatal("the evicted oldest tile came back with a tree that was kept past its set")
	}

	// A set that alone exceeds the bound is served but not kept.
	s.decoded.max = 1
	s.decoded.drop(ds.man)
	if _, _, err := ds.ReadTile(0); err != nil {
		t.Fatal(err)
	}
	if bytes, sets := s.decoded.size(); bytes != 0 || sets != 0 {
		t.Fatalf("%d sets (%d bytes) kept under a 1-byte bound", sets, bytes)
	}
}

// TestDeleteDropsDecodedSets: plain and forced deletes (a retention sweep is
// a plain delete) leave nothing of the dataset in the cache, and a read
// through the stale handle reports the delete.
func TestDeleteDropsDecodedSets(t *testing.T) {
	for name, del := range map[string]func(*Store, string) error{
		"delete": (*Store).Delete, "force": (*Store).ForceDelete,
	} {
		t.Run(name, func(t *testing.T) {
			s := openStore(t, t.TempDir())
			keep := ingestOpen(t, s, seededDataset("kept", 3, 1))
			ds := ingestOpen(t, s, testDataset(t, 2))
			for _, d := range []*Dataset{keep, ds, ds} {
				for i := range d.man.Tiles {
					if _, _, err := d.ReadTile(i); err != nil {
						t.Fatal(err)
					}
				}
			}
			wantLookups(t, s, "warm-up", 4, 6)
			if err := del(s, ds.man.ID); err != nil {
				t.Fatal(err)
			}
			a, b, err := keep.load(&keep.man.Tiles[0], true, true)
			if err != nil {
				t.Fatal(err)
			}
			if bytes, sets := s.decoded.size(); sets != 2 || bytes != a.bytes+b.bytes {
				t.Fatalf("%d sets (%d bytes) cached after the delete, want only the other dataset's 2 (%d bytes, trees included)",
					sets, bytes, a.bytes+b.bytes)
			}
			if _, _, err := ds.ReadTile(0); !errors.Is(err, ErrDeleted) {
				t.Fatalf("ReadTile through the stale handle = %v, want ErrDeleted", err)
			}
			if _, _, err := keep.ReadTile(0); err != nil {
				t.Fatalf("the other dataset's cached tile: %v", err)
			}
		})
	}
}

// TestDecodedHitAfterForceDeleteReportsLifecycle: two datasets that share a
// tile share its cache entries, so a handle whose dataset was force-deleted
// can find its tile cached by the surviving dataset. The hit must still fail
// with the lifecycle error a job caught mid-run reports.
func TestDecodedHitAfterForceDeleteReportsLifecycle(t *testing.T) {
	s := openStore(t, t.TempDir())
	big := testDataset(t, 2)
	small := *big
	small.Pairs = big.Pairs[:1]
	doomed, survivor := ingestOpen(t, s, &small), ingestOpen(t, s, big)
	if doomed.man.Tiles[0].Digest != survivor.man.Tiles[0].Digest {
		t.Fatal("the two datasets do not share their first tile")
	}
	if err := s.Pin(doomed.man.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.ForceDelete(doomed.man.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := survivor.ReadTile(0); err != nil {
		t.Fatal(err)
	}
	if _, sets := s.decoded.size(); sets != 2 {
		t.Fatalf("%d sets cached, want the shared tile's 2", sets)
	}
	_, _, err := doomed.ReadTile(0)
	if !errors.Is(err, ErrDeleted) || !strings.Contains(err.Error(), "deleted during job") {
		t.Fatalf("cached read through the deleted dataset's handle = %v, want ErrDeleted", err)
	}
	if _, _, err := NewCrossReader(survivor, doomed).ReadPair(0, 0); !errors.Is(err, ErrDeleted) {
		t.Fatalf("cached cross read against the deleted dataset = %v, want ErrDeleted", err)
	}
}

// TestDecodedConcurrentReadsWithDelete: readers over overlapping tiles race a
// delete. Every read either returns the tile or reports the delete, and no
// read that straddled the delete leaves a set behind. CI runs this under
// -race.
func TestDecodedConcurrentReadsWithDelete(t *testing.T) {
	const tiles, readers = 4, 6
	d := testDataset(t, tiles)
	s := openStore(t, t.TempDir())
	ds := ingestOpen(t, s, d)
	s.decoded.max = 3 * ds.man.Tiles[0].Bytes() // about two tiles: readers also evict each other's sets

	var wg sync.WaitGroup
	started := make(chan struct{}, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cr := NewCrossReader(ds, ds)
			for n := 0; ; n++ {
				i := (r + n) % tiles
				var a, b []*geom.Polygon
				var err error
				if r%2 == 0 {
					a, b, err = ds.ReadTile(i)
				} else {
					a, b, err = cr.ReadPair(i, i)
				}
				if n == 0 {
					started <- struct{}{}
				}
				if err != nil {
					if !errors.Is(err, ErrDeleted) {
						t.Errorf("reader %d tile %d: %v", r, i, err)
					}
					return
				}
				if len(a) != len(d.Pairs[i].A) || len(b) != len(d.Pairs[i].B) || !equalVertices(a[0], d.Pairs[i].A[0]) {
					t.Errorf("reader %d tile %d: wrong polygons", r, i)
					return
				}
			}
		}(r)
	}
	for r := 0; r < readers; r++ {
		<-started
	}
	if err := s.Delete(ds.man.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if bytes, sets := s.decoded.size(); bytes != 0 || sets != 0 {
		t.Fatalf("%d sets (%d bytes) outlived the delete", sets, bytes)
	}
}

// TestDecodedFirstDecodeRacesJobs: several readers miss on the same tile at
// once, and each runs a job on what it was handed while the others are still
// decoding, building band tables and publishing. Tables are written before a
// set is returned or published and never after, so under -race (CI) nothing
// is reported; every reader gets tabled polygons and the oracle's answer, and
// one decode of each set is kept.
func TestDecodedFirstDecodeRacesJobs(t *testing.T) {
	const readers = 6
	d := seededDataset("slide", 1, 1)
	s := openStore(t, t.TempDir())
	ds := ingestOpen(t, s, d)
	want := oracle(t, d, d)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for pass := 0; pass < 3; pass++ {
				task, err := ds.Source().PolyTask(0)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for _, p := range append(task.A[:len(task.A):len(task.A)], task.B...) {
					if _, ok := p.Bands(); !ok {
						t.Errorf("reader %d pass %d: a polygon read through the store has no band table", r, pass)
						return
					}
				}
				got, err := pipeline.RunParsed([]tilepass.PolyTask{task}, pipeline.Config{})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if got.Similarity != want.Similarity || got.Candidates != want.Candidates || got.Intersecting != want.Intersecting {
					t.Errorf("reader %d pass %d: (%v, %d, %d) != oracle (%v, %d, %d)", r, pass,
						got.Similarity, got.Candidates, got.Intersecting, want.Similarity, want.Candidates, want.Intersecting)
					return
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
	if _, sets := s.decoded.size(); sets != 2 {
		t.Fatalf("%d sets kept, want one decode of each of the tile's two", sets)
	}
}

// TestDecodedTreesSharedAcrossDelete: self jobs over one dataset and matrix
// cells comparing it against another all join the same kept trees at once,
// while a delete drops them. Every job that got its tiles reports the oracle's
// bits, every other reports the delete, and nothing of the deleted dataset
// stays cached. Joins only read a tree, so under -race (CI) nothing is
// reported.
func TestDecodedTreesSharedAcrossDelete(t *testing.T) {
	const tiles, jobs = 2, 6
	x, y := seededDataset("slide", 1, tiles), seededDataset("slide", 2, tiles)
	s := openStore(t, t.TempDir())
	dx, dy := ingestOpen(t, s, x), ingestOpen(t, s, y)
	wantSelf, wantCell := oracle(t, x, x), oracle(t, x, y)

	var wg sync.WaitGroup
	started := make(chan struct{}, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			other, want := dx, wantSelf
			if j%2 == 1 {
				other, want = dy, wantCell
			}
			cr := NewCrossReader(dx, other)
			for n := 0; ; n++ {
				var shard []tilepass.PolyTask
				for i := 0; i < tiles; i++ {
					task, err := cr.PolyTask(i, i)
					if err != nil {
						if !errors.Is(err, ErrDeleted) {
							t.Errorf("job %d tile %d: %v", j, i, err)
						}
						if n == 0 {
							t.Errorf("job %d saw the delete before it was issued", j)
						}
						return
					}
					shard = append(shard, task)
				}
				got, err := pipeline.RunParsed(shard, pipeline.Config{})
				if err != nil || got.Similarity != want.Similarity || got.Candidates != want.Candidates ||
					!reflect.DeepEqual(got.TileRatios, want.TileRatios) {
					t.Errorf("job %d pass %d: (%v, %d, %v) != oracle (%v, %d)", j, n,
						got.Similarity, got.Candidates, err, want.Similarity, want.Candidates)
					return
				}
				if n == 0 {
					started <- struct{}{}
				}
			}
		}(j)
	}
	for j := 0; j < jobs; j++ {
		<-started
	}
	if err := s.Delete(dx.man.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, sets := s.decoded.size(); sets != tiles {
		t.Fatalf("%d sets cached after the delete, want y's %d B sets only", sets, tiles)
	}
}

// TestDecodedSurvivesLaterCorruption: a cached set is the decode of bytes
// that verified, so corrupting the segment afterwards cannot change what a
// hit serves; every path that goes back to the bytes — an uncached tile, the
// same tile once evicted, an import of the damaged copy — reports the digest
// mismatch.
func TestDecodedSurvivesLaterCorruption(t *testing.T) {
	d := testDataset(t, 2)
	dir := t.TempDir()
	s := openStore(t, dir)
	ds := ingestOpen(t, s, d)
	if _, _, err := ds.ReadTile(0); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, ds.man.ID, segmentFile)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range ds.man.Tiles {
		raw[ti.OffA+ti.LenA/2] ^= 0xff
	}
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	a, b, err := ds.ReadTile(0)
	if err != nil {
		t.Fatalf("cached tile after the corruption: %v", err)
	}
	for k, p := range a {
		if !equalVertices(p, d.Pairs[0].A[k]) {
			t.Fatalf("the hit served polygon %d changed", k)
		}
	}
	if len(b) != len(d.Pairs[0].B) {
		t.Fatalf("the hit served %d B polygons, want %d", len(b), len(d.Pairs[0].B))
	}
	mismatch := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "content digest mismatch") {
			t.Fatalf("%s = %v, want the digest mismatch", what, err)
		}
	}
	_, _, err = ds.ReadTile(1)
	mismatch("uncached tile", err)
	s.decoded.drop(ds.man)
	_, _, err = ds.ReadTile(0)
	mismatch("evicted tile", err)
	_, _, err = openStore(t, t.TempDir()).Import(ds.man, bytes.NewReader(raw))
	mismatch("import of the damaged copy", err)
}

// TestPooledReadBuffersHoldNothing: verify reads each tile into a pooled
// buffer, and no decoded set points into it: scribbling over every buffer
// the pool hands back after a read leaves each set as the generator made it
// and as a fresh decode makes it. A tampered byte in either set still fails
// the digest.
func TestPooledReadBuffersHoldNothing(t *testing.T) {
	d := testDataset(t, 8)
	dir := t.TempDir()
	s := openStore(t, dir)
	ds := ingestOpen(t, s, d)
	kept := make([][2][]*geom.Polygon, len(ds.man.Tiles))
	scribbled := 0
	for i := range ds.man.Tiles {
		a, b, err := ds.ReadTile(i)
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = [2][]*geom.Polygon{a, b}
		bp := tileBufs.Get().(*[]byte)
		buf := (*bp)[:cap(*bp)]
		for k := range buf {
			buf[k] = 0xa5
		}
		if len(buf) > 0 {
			scribbled++
		}
		tileBufs.Put(bp)
	}
	if scribbled == 0 {
		t.Fatal("the pool never handed back a buffer a read had used")
	}
	s.decoded.drop(ds.man)
	for i := range ds.man.Tiles {
		a, b, err := ds.ReadTile(i)
		if err != nil {
			t.Fatal(err)
		}
		for k, fresh := range [2][]*geom.Polygon{a, b} {
			orig := [2][]*geom.Polygon{d.Pairs[i].A, d.Pairs[i].B}[k]
			if len(kept[i][k]) != len(fresh) || len(fresh) != len(orig) {
				t.Fatalf("tile %d set %d: %d polygons kept, %d decoded afresh, %d generated", i, k, len(kept[i][k]), len(fresh), len(orig))
			}
			for j, p := range kept[i][k] {
				if !equalVertices(p, fresh[j]) || !equalVertices(p, orig[j]) || p.MBR() != fresh[j].MBR() {
					t.Fatalf("tile %d set %d polygon %d changed after its read buffer was reused", i, k, j)
				}
			}
		}
	}

	seg := filepath.Join(dir, ds.man.ID, segmentFile)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ti0, ti1 := ds.man.Tiles[0], ds.man.Tiles[1]
	raw[ti0.OffA+ti0.LenA-1] ^= 0x01
	raw[ti1.OffB] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s.decoded.drop(ds.man)
	for i := 0; i < 2; i++ {
		if _, _, err := ds.ReadTile(i); err == nil || !strings.Contains(err.Error(), "content digest mismatch") {
			t.Fatalf("tile %d with one byte flipped: %v, want the digest mismatch", i, err)
		}
	}
}

// TestReadTileRanges: readTile reads set A then set B into one buffer
// whether B follows A in the segment or not, and a short read names the set
// it fell in, its offset and its length.
func TestReadTileRanges(t *testing.T) {
	path := filepath.Join(t.TempDir(), segmentFile)
	if err := os.WriteFile(path, []byte("bbbAAAA"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d := &Dataset{man: &Manifest{ID: "ds"}}
	for _, c := range []struct {
		ti      TileInfo
		want    string // buffer, or the error's tail
		wantErr bool
	}{
		{TileInfo{OffA: 3, LenA: 4, OffB: 0, LenB: 3}, "AAAAbbb", false},
		{TileInfo{OffA: 0, LenA: 3, OffB: 3, LenB: 4}, "bbbAAAA", false},
		{TileInfo{OffA: 3, LenA: 4, OffB: 7, LenB: 2}, "set B corrupt: read 2 bytes at 7: EOF", true},
		{TileInfo{OffA: 5, LenA: 4, OffB: 9, LenB: 2}, "set A corrupt: read 4 bytes at 5: EOF", true},
		{TileInfo{OffA: 5, LenA: 4, OffB: 0, LenB: 2}, "set A corrupt: read 4 bytes at 5: EOF", true},
		{TileInfo{OffA: 0, LenA: 3, OffB: 6, LenB: 2}, "set B corrupt: read 2 bytes at 6: EOF", true},
	} {
		buf := make([]byte, c.ti.LenA+c.ti.LenB)
		err := d.readTile(f, &c.ti, buf)
		if c.wantErr {
			if err == nil || !strings.HasSuffix(err.Error(), c.want) {
				t.Fatalf("%+v: %v, want an error ending %q", c.ti, err, c.want)
			}
		} else if err != nil || string(buf) != c.want {
			t.Fatalf("%+v: %q, %v; want %q", c.ti, buf, err, c.want)
		}
	}
}

// TestImportSeedsDecodedCache: Import verifies and decodes every tile of the
// peer's bytes with the step a read miss uses, on more goroutines than one
// when it can, and hands the sets to the decoded cache, so the first read of
// the imported dataset is all hits and reads nothing from disk, and what it
// serves equals a fresh store's decode of the same segment. Under a bound
// smaller than the copy, the cache keeps exactly what putting every set in
// tile order keeps. A copy that fails verification, wherever its bad tile,
// is refused naming its first bad tile and keeps nothing — not even when the
// cache already holds sets under the corrupted tile's digest — stops handing
// out tiles, and leaves no goroutine behind; a delete racing the import
// leaves no set behind.
func TestImportSeedsDecodedCache(t *testing.T) {
	tiles := max(9, runtime.GOMAXPROCS(0)+1) // more tiles than verifying goroutines
	d := testDataset(t, tiles)
	srcDir := t.TempDir()
	src := openStore(t, srcDir)
	man, err := ingestDataset(src, d)
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(srcDir, man.ID, segmentFile)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// want is a fresh store's decode of the same segment: the sets of tile i
	// at 2i and 2i+1.
	fresh, err := Open(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	freshDS, err := fresh.OpenDataset(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*decodedSet, 0, 2*tiles)
	for i := 0; i < tiles; i++ {
		a, b, err := freshDS.readSets(i, true, true)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, a, b)
	}
	const tileReads = "sccgd_store_tile_read_seconds_count"
	wantNothingKept := func(t *testing.T, s *Store, dir string, sets int) {
		t.Helper()
		if _, ok := s.Get(man.ID); ok {
			t.Fatal("the refused copy was published")
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if _, ok := s.Get(e.Name()); !ok {
				t.Fatalf("%q left in the store directory", e.Name())
			}
		}
		if _, got := s.decoded.size(); got != sets {
			t.Fatalf("%d sets cached, want %d", got, sets)
		}
	}
	// refused imports bad into dst and wants the digest mismatch of
	// man.Tiles[first], with no goroutine of the import still running.
	refused := func(t *testing.T, dst *Store, man *Manifest, bad []byte, first int) {
		t.Helper()
		before := runtime.NumGoroutine()
		_, _, err := dst.Import(man, bytes.NewReader(bad))
		ti := man.Tiles[first]
		name := fmt.Sprintf("tile %s/%d corrupt: content digest mismatch", ti.Image, ti.Tile)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("Import = %v, want %q", err, name)
		}
		// A goroutine counts until it has exited, a moment after Import saw
		// it finish.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the refused import, %d before", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("hand-over", func(t *testing.T) {
		dst := openStore(t, t.TempDir())
		reg := metrics.NewRegistry()
		dst.SetMetrics(reg)
		if _, verify, err := dst.Import(man, bytes.NewReader(raw)); err != nil || verify <= 0 {
			t.Fatalf("Import = %v after %v verifying", err, verify)
		}
		if got := reg.Snapshot()[tileReads]; got != float64(tiles) {
			t.Fatalf("the import observed %v tile reads, want %d", got, tiles)
		}
		ds, err := dst.OpenDataset(man.ID)
		if err != nil {
			t.Fatal(err)
		}
		wantLookups(t, dst, "import", 0, 0)
		for i := 0; i < tiles; i++ {
			gotA, gotB, err := ds.readSets(i, true, true)
			if err != nil {
				t.Fatal(err)
			}
			for j, got := range []*decodedSet{gotA, gotB} {
				want := want[2*i+j]
				if !reflect.DeepEqual(got.polys, want.polys) || !reflect.DeepEqual(got.tree, want.tree) || got.bytes != want.bytes {
					t.Fatalf("tile %d set %c: the imported set differs from a fresh decode of the segment", i, got.key.set)
				}
			}
			wantBands(t, "an imported set", true, gotA.polys, gotB.polys)
		}
		wantLookups(t, dst, "one pass over the imported dataset", int64(2*tiles), 0)
		if got := reg.Snapshot()[tileReads]; got != float64(tiles) {
			t.Fatalf("%v tile reads after a pass over the imported dataset, want still %d", got, tiles)
		}
	})

	t.Run("bound", func(t *testing.T) {
		var total, largest int64
		for _, set := range want {
			total += set.bytes
			largest = max(largest, set.bytes)
		}
		// Half the copy, and just under its largest set, which the cache
		// then skips while it may still keep smaller sets before it.
		for _, bound := range []int64{total / 2, largest - 1} {
			serial := newDecodedCache(bound)
			for _, set := range want {
				serial.put(set)
			}
			dst := openStore(t, t.TempDir())
			dst.decoded.max = bound
			if _, _, err := dst.Import(man, bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
			got, sets := dst.decoded.size()
			if sets == 0 || sets == len(want) || sets != len(serial.entries) || got > bound {
				t.Fatalf("bound %d: %d sets cached in %d bytes, want the %d a serial put keeps, within the bound",
					bound, sets, got, len(serial.entries))
			}
			for key := range serial.entries {
				if _, ok := dst.decoded.entries[key]; !ok {
					t.Fatalf("bound %d: set %c of a tile a serial put keeps is not cached", bound, key.set)
				}
			}
		}
	})

	for _, c := range []struct {
		name  string
		tiles []int // corrupted, lowest first
	}{
		{"corrupt first tile", []int{0}},
		{"corrupt middle tile", []int{tiles / 2}},
		{"corrupt last tile", []int{tiles - 1}},
		{"corrupt first two tiles", []int{0, 1}}, // both may be in flight at once
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), raw...)
			for _, i := range c.tiles {
				ti := man.Tiles[i]
				bad[ti.OffB+ti.LenB/2] ^= 0xff
			}
			dir := t.TempDir()
			dst := openStore(t, dir)
			refused(t, dst, man, bad, c.tiles[0])
			wantNothingKept(t, dst, dir, 0)
		})
	}

	t.Run("failure stops handing out tiles", func(t *testing.T) {
		const many = 64
		srcDir := t.TempDir()
		man, err := ingestDataset(openStore(t, srcDir), testDataset(t, many))
		if err != nil {
			t.Fatal(err)
		}
		bad, err := os.ReadFile(filepath.Join(srcDir, man.ID, segmentFile))
		if err != nil {
			t.Fatal(err)
		}
		bad[man.Tiles[0].OffA+man.Tiles[0].LenA/2] ^= 0xff
		dst := openStore(t, t.TempDir())
		reg := metrics.NewRegistry()
		dst.SetMetrics(reg)
		refused(t, dst, man, bad, 0)
		if got := reg.Snapshot()[tileReads]; got >= many-1 {
			t.Fatalf("a copy bad in tile 0 read %v of its %d tiles", got, many)
		}
	})

	t.Run("corrupt tile cached by another dataset", func(t *testing.T) {
		// The other dataset holds every tile the import does, and one more, so
		// every digest the import checks is already cached.
		dir := t.TempDir()
		dst := openStore(t, dir)
		other := testDataset(t, tiles+1)
		ds := ingestOpen(t, dst, other)
		for i := range other.Pairs {
			if _, _, err := ds.ReadTile(i); err != nil {
				t.Fatal(err)
			}
		}
		for _, ti := range man.Tiles {
			if _, ok := dst.decoded.entries[decodedKey{ti.sum, 'A'}]; !ok {
				t.Fatalf("tile %s/%d is not cached before the import", ti.Image, ti.Tile)
			}
		}
		bad := append([]byte(nil), raw...)
		bad[man.Tiles[0].OffA+man.Tiles[0].LenA/2] ^= 0xff
		refused(t, dst, man, bad, 0)
		wantNothingKept(t, dst, dir, 2*(tiles+1))
	})

	t.Run("racing force delete", func(t *testing.T) {
		dir := t.TempDir()
		dst := openStore(t, dir)
		for round := 0; round < 20; round++ {
			var imported atomic.Bool
			done := make(chan error, 1)
			go func() {
				_, _, err := dst.Import(man, bytes.NewReader(raw))
				imported.Store(true)
				done <- err
			}()
			// Delete as soon as the dataset is indexed, while Import may still
			// be handing its sets over.
			for dst.ForceDelete(man.ID) != nil {
				if imported.Load() {
					if err := dst.ForceDelete(man.ID); err != nil {
						t.Fatalf("round %d: delete after the import: %v", round, err)
					}
					break
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("round %d: Import: %v", round, err)
			}
			wantNothingKept(t, dst, dir, 0)
		}
	})
}

// TestHandOverMatchesSerialPut: whatever order tiles verify in, what an
// import holds never passes the bound, and once every tile is in it holds
// exactly the sets that putting them all in tile order keeps, sets larger
// than the bound skipped.
func TestHandOverMatchesSerialPut(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		tiles := 1 + rng.Intn(12)
		bound := int64(1 + rng.Intn(300))
		sets := make([]*decodedSet, 2*tiles)
		serial := newDecodedCache(bound)
		for j := range sets {
			sets[j] = &decodedSet{key: decodedKey{digest: [32]byte{byte(j)}}, bytes: int64(1 + rng.Intn(100))}
			serial.put(sets[j])
		}
		kept := newHandOver(bound, tiles)
		for n, i := range rng.Perm(tiles) {
			kept.add(i, sets[2*i], sets[2*i+1])
			var held int64
			for _, set := range kept.sets {
				if set != nil {
					held += set.bytes
				}
			}
			if held > bound {
				t.Fatalf("trial %d: %d bytes held after %d of %d tiles, bound %d", trial, held, n+1, tiles, bound)
			}
		}
		for j, set := range kept.sets {
			if _, ok := serial.entries[sets[j].key]; ok != (set != nil) {
				t.Fatalf("trial %d: set %d of %d (%d bytes, bound %d) held %v, kept by a serial put %v",
					trial, j, len(sets), sets[j].bytes, bound, set != nil, ok)
			}
		}
	}
}

// TestDecodedMetricsOnScrape: the tile-read histogram counts reads from disk
// only, and a scrape carries the cache's lookups and size.
func TestDecodedMetricsOnScrape(t *testing.T) {
	s := openStore(t, t.TempDir())
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	ds := ingestOpen(t, s, testDataset(t, 1))
	for pass := 0; pass < 3; pass++ {
		if _, _, err := ds.ReadTile(0); err != nil {
			t.Fatal(err)
		}
	}
	bytes, _ := s.decoded.size()
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"sccgd_store_tile_read_seconds_count": 1,
		"sccgd_store_decoded_misses_total":    2,
		"sccgd_store_decoded_hits_total":      4,
		"sccgd_store_decoded_bytes":           float64(bytes),
	} {
		if got, ok := snap[name]; !ok || got != want || want == 0 {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

// TestDecodedBytesOfABenchmarkDataset pins what one dataset of the benchmark
// corpus' shape costs the decoded cache once every tile is read — polygons,
// edge tables, band tables, row masks and trees — and checks that the
// benchmark's six-way pool fits the bound. The figure moves only when what a
// decoded set keeps does: the trees' MinX orders added 10,635 bytes, one a
// polygon (3,195) and a 24-byte slice header a node (310).
func TestDecodedBytesOfABenchmarkDataset(t *testing.T) {
	const want = 4_521_759
	s := openStore(t, t.TempDir())
	ds := ingestOpen(t, s, testDataset(t, 32))
	var rows, segment int64
	for i := range ds.man.Tiles {
		a, b, err := ds.ReadTile(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range [][]*geom.Polygon{a, b} {
			for _, p := range set {
				r, _ := p.Rows()
				rows += int64(len(r)) * 8
			}
		}
		segment += ds.man.Tiles[i].Bytes()
	}
	got, sets := s.decoded.size()
	t.Logf("%d sets: %d decoded bytes (%d of them row masks) for %d segment bytes", sets, got, rows, segment)
	if sets != 2*len(ds.man.Tiles) || got != want || rows == 0 {
		t.Fatalf("%d sets take %d decoded bytes (%d of them row masks), want %d sets in %d with row masks",
			sets, got, rows, 2*len(ds.man.Tiles), want)
	}
	if 6*got > decodedCacheBytes {
		t.Fatalf("six such datasets take %d bytes, over the %d-byte bound", 6*got, decodedCacheBytes)
	}
}

// benchDataset is the benchmark corpus' shape: 32 tiles of the
// representative slide.
func benchDataset(b *testing.B) (*Store, *Dataset) {
	spec := pathology.Representative()
	spec.Tiles = 32
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	man, err := ingestDataset(s, pathology.Generate(spec))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := s.OpenDataset(man.ID)
	if err != nil {
		b.Fatal(err)
	}
	return s, ds
}

func readAllTiles(b *testing.B, ds *Dataset) {
	for i := range ds.man.Tiles {
		if _, _, err := ds.ReadTile(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadTileMiss is one pass over 32 tiles with nothing cached: open,
// read, digest, decode, validate, and hand to the cache.
func BenchmarkReadTileMiss(b *testing.B) {
	s, ds := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		s.decoded.drop(ds.man)
		b.StartTimer()
		readAllTiles(b, ds)
	}
}

// BenchmarkReadTileHit is the same pass with every set cached.
func BenchmarkReadTileHit(b *testing.B) {
	_, ds := benchDataset(b)
	readAllTiles(b, ds)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		readAllTiles(b, ds)
	}
}

// BenchmarkFilterStoredTiles is one CPU-only job over 32 cached tiles, joining
// the trees kept with the sets (kept) or, the tasks stripped of them, building
// two per tile per run as the builder stage does for any task without (built).
// stages-us/op is the builder and filter stages' busy time alone.
func BenchmarkFilterStoredTiles(b *testing.B) {
	_, ds := benchDataset(b)
	kept := make([]tilepass.PolyTask, len(ds.man.Tiles))
	built := make([]tilepass.PolyTask, len(ds.man.Tiles))
	for i := range kept {
		var err error
		if kept[i], err = ds.Source().PolyTask(i); err != nil {
			b.Fatal(err)
		}
		built[i] = tilepass.PolyTask{Image: kept[i].Image, Tile: kept[i].Tile, A: kept[i].A, B: kept[i].B}
	}
	for _, c := range []struct {
		name  string
		tasks []tilepass.PolyTask
	}{{"kept", kept}, {"built", built}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var stages time.Duration
			for n := 0; n < b.N; n++ {
				res, err := pipeline.RunParsed(c.tasks, pipeline.Config{})
				if err != nil {
					b.Fatal(err)
				}
				stages += res.Stats.BuilderBusy + res.Stats.FilterBusy
			}
			b.ReportMetric(float64(stages.Microseconds())/float64(b.N), "stages-us/op")
		})
	}
}

// BenchmarkImport imports a stored dataset's manifest and segment into a
// fresh store each iteration, as a peer pull does once the manifest is in
// and the segment streams: the benchmark corpus' 32-tile shape and, unless
// -short, the corpus' largest dataset at 10x and 30x its tiles (440 tiles,
// whose 31 MB of segment decode to about twice the 32 MiB bound, and 1,320
// tiles, 93 MB). It reports the whole Import, its verify part (from the copied bytes
// to the publish: fsync, digests, decode, hand-over) and the peak live heap
// while it ran.
func BenchmarkImport(b *testing.B) {
	small := pathology.Representative()
	small.Tiles = 32
	specs := []pathology.DatasetSpec{small}
	for _, scale := range []int{10, 30} {
		spec := pathology.Corpus()[17]
		spec.Tiles *= scale
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		b.Run(fmt.Sprintf("tiles=%d", spec.Tiles), func(b *testing.B) {
			if testing.Short() && spec.Tiles > small.Tiles {
				b.Skip("-short")
			}
			dir := b.TempDir()
			src, err := Open(filepath.Join(dir, "src"))
			if err != nil {
				b.Fatal(err)
			}
			man, err := ingestDataset(src, pathology.Generate(spec))
			if err != nil {
				b.Fatal(err)
			}
			segPath := filepath.Join(dir, "src", man.ID, segmentFile)
			var imported, verify time.Duration
			var peak uint64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				dstDir := filepath.Join(dir, "dst")
				if err := os.RemoveAll(dstDir); err != nil {
					b.Fatal(err)
				}
				dst, err := Open(dstDir)
				if err != nil {
					b.Fatal(err)
				}
				seg, err := os.Open(segPath)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				stop := sampleHeap(&peak)
				b.StartTimer()
				start := time.Now()
				_, v, err := dst.Import(man, seg)
				imported += time.Since(start)
				verify += v
				b.StopTimer()
				stop()
				seg.Close()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(imported), "import_ms")
			b.ReportMetric(ms(verify), "verify_ms")
			b.ReportMetric(float64(peak)/(1<<20), "peak_live_MB")
		})
	}
}

// sampleHeap records the largest live heap seen every millisecond into peak
// until stop is called. Live is what the last GC marked reachable; the
// heap-objects figure would also count unswept garbage (about twice as much).
func sampleHeap(peak *uint64) (stop func()) {
	done := make(chan struct{})
	var finished atomic.Bool
	go func() {
		defer close(done)
		sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for !finished.Load() {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			time.Sleep(time.Millisecond)
		}
	}()
	return func() { finished.Store(true); <-done }
}
