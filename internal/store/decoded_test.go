package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/rtree"
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
	man, err := s.IngestDataset(d)
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
func oracle(t *testing.T, a, b *pathology.Dataset) pipeline.Result {
	t.Helper()
	tasks := make([]pipeline.PolyTask, len(a.Pairs))
	for i := range a.Pairs {
		tasks[i] = pipeline.PolyTask{Image: a.Pairs[i].Image, Tile: a.Pairs[i].Index, A: a.Pairs[i].A, B: b.Pairs[i].B}
	}
	return runParsed(t, tasks)
}

func runParsed(t *testing.T, tasks []pipeline.PolyTask) pipeline.Result {
	t.Helper()
	res, err := pipeline.RunParsed(tasks, pipeline.Config{})
	if err != nil {
		t.Fatalf("RunParsed: %v", err)
	}
	return res
}

func sameAnswer(t *testing.T, what string, got, want pipeline.Result) {
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
func sameOnEveryPath(t *testing.T, what string, tasks []pipeline.PolyTask, want pipeline.Result) {
	t.Helper()
	raw := make([]pipeline.PolyTask, len(tasks))
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
		raw[i] = pipeline.PolyTask{Image: task.Image, Tile: task.Tile, A: task.A, B: task.B}
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
// keeps carries band tables; what Import's verifier decodes and what the
// parser builds does not, so the oracle (generated polygons) and the store's
// answers also hold tables to no tables.
func TestDecodedHitMatchesMissAndOracle(t *testing.T) {
	const tiles = 3
	x, y := seededDataset("slide", 1, tiles), seededDataset("slide", 2, tiles)
	s := openStore(t, t.TempDir())
	dx, dy := ingestOpen(t, s, x), ingestOpen(t, s, y)

	read := func(what string, task func(i int) (pipeline.PolyTask, error)) []pipeline.PolyTask {
		tasks := make([]pipeline.PolyTask, tiles)
		for i := range tasks {
			var err error
			if tasks[i], err = task(i); err != nil {
				t.Fatalf("%s(%d): %v", what, i, err)
			}
		}
		return tasks
	}
	self := func() []pipeline.PolyTask { return read("PolyTask", dx.Source().PolyTask) }
	cross := func() []pipeline.PolyTask {
		cr := NewCrossReader(dx, dy)
		return read("CrossReader.PolyTask", func(i int) (pipeline.PolyTask, error) { return cr.PolyTask(i, i) })
	}

	wantSelf, wantCross := oracle(t, x, x), oracle(t, x, y)
	miss := self()
	wantLookups(t, s, "first self pass", 0, 2*tiles)
	sameOnEveryPath(t, "self job, miss", miss, wantSelf)
	wantBands(t, "a set the store keeps", true, miss[0].A, miss[tiles-1].B)
	unkept, _, err := (&Dataset{dir: dx.dir, man: dx.man}).readSets(0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	wantBands(t, "a set Import's verifier decodes", false, unkept.polys)
	if unkept.tree != nil {
		t.Fatal("Import's verifier built a tree for a set nobody joins")
	}
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
			slab := geom.NewSlab(0, 0)
			if got := newDecodedSet(set.key, slab, set.polys, set.tree).bytes - newDecodedSet(set.key, slab, set.polys, nil).bytes; got != set.tree.Bytes() {
				t.Fatalf("tile %d set %c: keeping the tree is accounted %d bytes, it holds %d", i, set.key.set, got, set.tree.Bytes())
			}
			treeBytes += set.tree.Bytes()
		}
		if tileBytes[i] = a.bytes + b.bytes; tileBytes[i]-treeBytes < ds.man.Tiles[i].Bytes() {
			t.Fatalf("tile %d: %d decoded bytes (%d of them trees) accounted for %d segment bytes", i, tileBytes[i], treeBytes, ds.man.Tiles[i].Bytes())
		}
	}
	s.decoded.max = tileBytes[5] + tileBytes[6] + tileBytes[7]

	var first [tiles]pipeline.PolyTask
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
				got, err := pipeline.RunParsed([]pipeline.PolyTask{task}, pipeline.Config{})
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
				var shard []pipeline.PolyTask
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
	_, err = openStore(t, t.TempDir()).Import(ds.man, bytes.NewReader(raw))
	mismatch("import of the damaged copy", err)
}

// TestImportBypassesDecodedCache: Import's verifier reads outside any store,
// so what it decoded is not kept; the first read of the imported dataset
// goes to disk and only the second is served from the cache.
func TestImportBypassesDecodedCache(t *testing.T) {
	d := testDataset(t, 3)
	src := openStore(t, t.TempDir())
	man, err := src.IngestDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := src.OpenSegment(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	dst := openStore(t, t.TempDir())
	if _, err := dst.Import(man, seg); err != nil {
		t.Fatal(err)
	}
	wantLookups(t, dst, "import", 0, 0)
	if _, sets := dst.decoded.size(); sets != 0 {
		t.Fatalf("import left %d sets in the cache", sets)
	}
	ds, err := dst.OpenDataset(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []struct {
		what         string
		hits, misses int64
	}{{"first read after import", 0, 6}, {"second read", 6, 6}} {
		for i := range d.Pairs {
			a, _, err := ds.ReadTile(i)
			if err != nil {
				t.Fatal(err)
			}
			if !equalVertices(a[0], d.Pairs[i].A[0]) {
				t.Fatalf("%s, tile %d: wrong polygons", pass.what, i)
			}
		}
		wantLookups(t, dst, pass.what, pass.hits, pass.misses)
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
// decoded set keeps does.
func TestDecodedBytesOfABenchmarkDataset(t *testing.T) {
	const want = 4_511_124
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
	man, err := s.IngestDataset(pathology.Generate(spec))
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
	kept := make([]pipeline.PolyTask, len(ds.man.Tiles))
	built := make([]pipeline.PolyTask, len(ds.man.Tiles))
	for i := range kept {
		var err error
		if kept[i], err = ds.Source().PolyTask(i); err != nil {
			b.Fatal(err)
		}
		built[i] = pipeline.PolyTask{Image: kept[i].Image, Tile: kept[i].Tile, A: kept[i].A, B: kept[i].B}
	}
	for _, c := range []struct {
		name  string
		tasks []pipeline.PolyTask
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
