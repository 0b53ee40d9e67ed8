// Package pixelbox implements PixelBox, the paper's core contribution: a
// GPU algorithm computing the areas of intersection and union of polygon
// pairs segmented from raster images (paper §3).
//
// Instead of constructing intersection/union boundaries the way sweepline
// overlay libraries do, PixelBox counts pixels. Rectilinearity makes the
// count exact (§3.1). Compute intensity is reduced with recursively refined
// sampling boxes classified by the Lemma-1 position test (§3.2), switching
// to per-pixel testing below a threshold T; the area of union is derived
// indirectly from ‖p∪q‖ = ‖p‖+‖q‖−‖p∩q‖.
//
// The package provides the GPU kernel of Algorithm 1 (run on the simulator
// in internal/gpu), the algorithmic ablations PixelOnly and PixelBox-NoSep
// (Fig. 8), the implementation-optimisation ladder NoOpt/NBC/NBC-UR/
// NBC-UR-SM (Fig. 9), and the CPU port PixelBox-CPU in single-core and
// parallel forms (§4.2).
//
// What the modelled device executes and what the host computes are kept
// apart. The kernel charges the simulator for Algorithm 1 as written — one
// thread per pixel, a ray cast over every edge per pixel, the shared stack,
// the barriers — and those charges depend only on the pair and the
// configuration. The integers themselves come from BandWalk (bandwalk.go): a
// GPU tests one pixel per thread because it has thousands of threads to
// feed, a host core has one, and a rectilinear polygon is a handful of bands
// whose overlap with another's a merge counts exactly, whatever the extent in
// pixels. The CPU port is that walk and nothing else. The paper's literal
// per-pixel CPU port, the one its figures measured, lives in
// internal/experiments.
package pixelbox

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/gpu"
)

// Pair is one polygon pair whose areas of intersection and union are to be
// computed; pairs are produced by the filter stage's MBR join.
type Pair struct {
	P, Q *geom.Polygon
}

// AreaResult is the output for one pair: exact pixel counts.
type AreaResult struct {
	Intersection int64
	Union        int64
}

// Ratio returns the Jaccard ratio r(p,q) = ‖p∩q‖/‖p∪q‖ and whether the pair
// truly intersects (MBR-intersecting pairs often do not).
func (r AreaResult) Ratio() (float64, bool) {
	if r.Intersection == 0 {
		return 0, false
	}
	return float64(r.Intersection) / float64(r.Union), true
}

// Variant selects the algorithmic and implementation options whose effects
// the paper ablates.
type Variant struct {
	// SamplingBoxes enables the recursive sampling-box refinement of §3.2;
	// disabled it degenerates to the pixelization-only method ("PixelOnly").
	SamplingBoxes bool
	// IndirectUnion derives the area of union from polygon areas and the
	// area of intersection rather than testing union membership during
	// refinement; disabled is the "PixelBox-NoSep" variant, which needs
	// strictly more box partitionings.
	IndirectUnion bool
	// SharedVertices loads polygon vertex data into shared memory when it
	// fits (the "SM" implementation optimisation); otherwise vertices are
	// read from (L1-cached) global memory on every edge test.
	SharedVertices bool
	// ConflictFreeStack lays the sampling-box stack out as five independent
	// SoA sub-stacks so warp-simultaneous pushes are conflict-free (the
	// "NBC" optimisation); otherwise stack elements are contiguous padded
	// records and pushes serialise on shared-memory banks.
	ConflictFreeStack bool
	// Unroll is the edge-loop unrolling factor (the "UR" optimisation);
	// values <= 1 mean no unrolling.
	Unroll int
}

// Canonical variants from the paper.
var (
	// PixelBox is the fully optimised algorithm: sampling boxes, indirect
	// union, and all implementation optimisations.
	PixelBox = Variant{SamplingBoxes: true, IndirectUnion: true, SharedVertices: true, ConflictFreeStack: true, Unroll: 4}
	// PixelBoxNoSep combines pixelization and sampling boxes but computes
	// the areas of intersection and union together directly (Fig. 8).
	PixelBoxNoSep = Variant{SamplingBoxes: true, IndirectUnion: false, SharedVertices: true, ConflictFreeStack: true, Unroll: 4}
	// PixelOnly uses the pixelization method alone (Fig. 8).
	PixelOnly = Variant{SamplingBoxes: false, IndirectUnion: false, SharedVertices: true, ConflictFreeStack: true, Unroll: 4}
	// NoOpt is PixelBox with no implementation optimisations (Fig. 9).
	NoOpt = Variant{SamplingBoxes: true, IndirectUnion: true}
	// NBC avoids stack bank conflicts only (Fig. 9).
	NBC = Variant{SamplingBoxes: true, IndirectUnion: true, ConflictFreeStack: true}
	// NBCUR adds edge-loop unrolling (Fig. 9).
	NBCUR = Variant{SamplingBoxes: true, IndirectUnion: true, ConflictFreeStack: true, Unroll: 4}
	// NBCURSM adds shared-memory vertex staging: identical to PixelBox.
	NBCURSM = PixelBox
)

// Name returns the paper's name for a canonical variant, or a descriptive
// string otherwise.
func (v Variant) Name() string {
	switch v {
	case PixelBox:
		return "PixelBox"
	case PixelBoxNoSep:
		return "PixelBox-NoSep"
	case PixelOnly:
		return "PixelOnly"
	case NoOpt:
		return "PixelBox-NoOpt"
	case NBC:
		return "PixelBox-NBC"
	case NBCUR:
		return "PixelBox-NBC-UR"
	}
	return fmt.Sprintf("Variant%+v", v)
}

// Config tunes a kernel launch.
type Config struct {
	// BlockSize is the thread-block size n; DefaultBlockSize when zero. The
	// paper finds small blocks (64) best (§5.4).
	BlockSize int
	// GridSize is the number of thread blocks; 0 selects automatically.
	GridSize int
	// Threshold is the pixelization threshold T in pixels; 0 selects the
	// paper's recommended n²/2.
	Threshold int
	// Variant selects the algorithm variant; the zero value is upgraded to
	// the fully optimised PixelBox.
	Variant Variant
}

// DefaultBlockSize is the paper's preferred thread-block size.
const DefaultBlockSize = 64

// normalized fills in defaults.
func (c Config) normalized() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Threshold <= 0 {
		c.Threshold = c.BlockSize * c.BlockSize / 2
	}
	if c.Threshold < 2 {
		// T=1 cannot terminate: a 1-pixel box is never smaller than T yet
		// cannot be partitioned further. Clamp (1x1 boxes are pixelised
		// unconditionally as well).
		c.Threshold = 2
	}
	if (c.Variant == Variant{}) {
		c.Variant = PixelBox
	}
	if c.Variant.Unroll < 1 {
		c.Variant.Unroll = 1
	}
	return c
}

// Shared-memory layout constants (bytes), mirroring §3.3: a static region
// for staged polygon vertices plus the sampling-box stack.
const (
	vertexRegionBytes = 2048 // 256 staged vertices of 8 bytes
	stackCapacity     = 512  // sampling-box stack entries
	stackEntryWords   = 5    // x0,y0,x1,y1,flag
	stackBytes        = stackCapacity * stackEntryWords * 4
	stackPadWords     = 8 // padded AoS record (without NBC)
)

// ShmemPerBlock returns the shared-memory footprint per thread block for a
// variant, used for occupancy.
func ShmemPerBlock(v Variant) int {
	sh := stackBytes
	if !v.ConflictFreeStack {
		sh = stackCapacity * stackPadWords * 4
	}
	if v.SharedVertices {
		sh += vertexRegionBytes
	}
	return sh
}

// Cost-model instruction counts per edge-loop iteration, calibrated to
// Fermi-generation instruction mixes. Loop overhead is divided by the
// unrolling factor.
const (
	pixelTestOps  = 5 // compares + conditional increment per edge
	boxTestOps    = 8 // interval overlap tests per edge
	centerTestOps = 5 // ray-crossing test per edge
	loopOverhead  = 3 // index update + bounds check + branch
	polyAreaOps   = 10
)

// RunGPU executes the configured variant over pairs on the simulated device
// and returns exact per-pair areas together with the modelled launch result
// and host-device transfer time in seconds.
//
// The computation is performed for real — results are exact and validated
// against the clip package in tests — while the gpu.Block cost primitives
// account for the work as a Fermi-class GPU would execute it.
func RunGPU(dev *gpu.Device, pairs []Pair, cfg Config) ([]AreaResult, gpu.LaunchResult, float64) {
	cfg = cfg.normalized()
	results := make([]AreaResult, len(pairs))
	if len(pairs) == 0 {
		return results, gpu.LaunchResult{}, 0
	}

	grid := cfg.GridSize
	if grid <= 0 {
		grid = dev.Config().SMs * dev.Config().MaxBlocksPerSM * 4
		if grid > len(pairs) {
			grid = len(pairs)
		}
	}

	// Host-to-device transfer: vertex data plus MBRs, device-to-host: areas.
	var bytes int64
	for _, pr := range pairs {
		bytes += int64(pr.P.NumVertices()+pr.Q.NumVertices())*8 + 16
	}
	xfer := dev.Transfer(bytes)
	launch := dev.Launch(grid, cfg.BlockSize, ShmemPerBlock(cfg.Variant), func(b *gpu.Block) {
		var s blockScratch
		for i := b.Idx; i < len(pairs); i += b.GridDim {
			results[i] = kernelPair(b, &s, pairs[i], cfg)
		}
	})
	xfer += dev.Transfer(int64(len(pairs)) * 16)
	return results, launch, xfer
}

// blockScratch is the host memory one simulated thread block reuses across
// its pairs: the sampling-box stack, the push-address buffers the bank-
// conflict model reads, and the band walk's crossing lists.
type blockScratch struct {
	stack []stackEntry
	slots []int32
	addrs []int32
	walk  BandWalk
}

// kernelPair processes one polygon pair inside a thread block, following
// Algorithm 1 of the paper.
func kernelPair(b *gpu.Block, s *blockScratch, pr Pair, cfg Config) AreaResult {
	v := cfg.Variant
	p, q := pr.P, pr.Q

	// Stage vertices into shared memory when they fit in the static region
	// (§3.3 "Utilize shared memory"): a strided copy from global memory.
	totalVerts := p.NumVertices() + q.NumVertices()
	inShared := v.SharedVertices && totalVerts*8 <= vertexRegionBytes
	b.GlobalRead(totalVerts * 8)
	if inShared {
		b.Strided(totalVerts, 2)
		b.SharedAccess((totalVerts + b.BlockDim - 1) / b.BlockDim)
	}

	res := AreaResult{}
	if v.IndirectUnion {
		// Lines 11-12: partial polygon areas by the shoelace formula,
		// strided across threads; reduction happens host-side (§3.3).
		b.Strided(p.NumVertices(), polyAreaOps)
		b.Strided(q.NumVertices(), polyAreaOps)
		if inShared {
			b.SharedBroadcast((totalVerts + b.BlockDim - 1) / b.BlockDim)
		} else {
			b.L1Read((totalVerts + b.BlockDim - 1) / b.BlockDim)
		}
	}

	// The working window: with indirect union only the intersection of the
	// two MBRs matters (‖p∩q‖ can only lie there); direct-union variants
	// must cover the pair's full union MBR, exactly as the paper's kernel
	// pushes the pair MBR as the first sampling box.
	var window geom.MBR
	if v.IndirectUnion {
		window = p.MBR().Intersection(q.MBR())
	} else {
		window = p.MBR().Union(q.MBR())
	}
	if window.IsEmpty() {
		res.Union = p.Area() + q.Area()
		return res
	}

	var inter, union int64
	if !v.SamplingBoxes {
		inter, union = pixelizeBox(b, s, p, q, window, cfg)
	} else {
		inter, union = samplingBoxLoop(b, s, p, q, window, cfg)
	}
	res.Intersection = inter
	if v.IndirectUnion {
		res.Union = p.Area() + q.Area() - inter
	} else {
		res.Union = union
	}
	// Write per-pair partials back to global memory (lines 5-6).
	b.GlobalWrite(16)
	return res
}

// stackEntry is one sampling box on the shared stack with its probe flag
// (c=0: skip when popped; Algorithm 1 line 19).
type stackEntry struct {
	box   geom.MBR
	probe bool
}

// samplingBoxLoop runs the sampling-box refinement of Algorithm 1 lines
// 13-42 for one pair, returning exact intersection (and, for the direct
// variant, union-within-MBR) pixel counts.
func samplingBoxLoop(b *gpu.Block, s *blockScratch, p, q *geom.Polygon, mbr geom.MBR, cfg Config) (inter, union int64) {
	v := cfg.Variant
	stack := append(s.stack[:0], stackEntry{box: mbr, probe: true})
	b.SharedAccess(1) // thread 0 pushes the MBR (line 13)

	kx, ky := partitionGrid(cfg.BlockSize)

	for len(stack) > 0 {
		b.Sync() // line 17
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b.SharedBroadcast(stackEntryWords) // all threads pop the same entry
		b.Uniform(3)                       // top bookkeeping + flag test
		if !top.probe {
			continue
		}
		size := top.box.Pixels()
		onePixel := top.box.Width() == 1 && top.box.Height() == 1
		overflow := len(stack)+1+cfg.BlockSize > stackCapacity
		if size < int64(cfg.Threshold) || onePixel || overflow {
			di, du := pixelizeBox(b, s, p, q, top.box, cfg)
			inter += di
			union += du
			continue
		}
		// Partition into blockDim sub-sampling boxes, one per thread
		// (lines 30-39). All threads execute the SubSampBox arithmetic and
		// the two Lemma-1 position tests in lockstep — every thread's
		// polygons (hence edge counts) are identical, so one warp
		// instruction stream covers the whole block and the cost is
		// charged once per partition step, not per thread.
		b.Uniform(8 + 6) // SubSampBox index arithmetic + BoxContinue/Contribute
		chargeBoxTests(b, p, q, cfg)
		pushAddrs := s.slots[:0]
		for tid := 0; tid < cfg.BlockSize; tid++ {
			sub := subSampBox(top.box, tid, kx, ky)
			if sub.IsEmpty() {
				// Trivially outside; still pushed with c=0 as in the real
				// kernel (the lane ran in lockstep with the others).
				stack = append(stack, stackEntry{probe: false})
				pushAddrs = append(pushAddrs, int32(len(stack)-1))
				continue
			}
			φ1 := p.BoxPosition(sub)
			φ2 := q.BoxPosition(sub)
			cont := boxContinue(φ1, φ2, v.IndirectUnion)
			if !cont {
				if φ1 == geom.BoxInside && φ2 == geom.BoxInside {
					inter += sub.Pixels()
				}
				if !v.IndirectUnion && (φ1 == geom.BoxInside || φ2 == geom.BoxInside) {
					union += sub.Pixels()
				}
			}
			stack = append(stack, stackEntry{box: sub, probe: cont})
			pushAddrs = append(pushAddrs, int32(len(stack)-1))
		}
		s.slots = pushAddrs
		chargeStackPush(b, s, v)
	}
	s.stack = stack // keep whatever the appends grew it to
	return inter, union
}

// boxContinue decides whether a sub-box needs further probing given its
// positions relative to the two polygons.
func boxContinue(φ1, φ2 geom.BoxPos, indirectUnion bool) bool {
	interKnown := φ1 == geom.BoxOutside || φ2 == geom.BoxOutside ||
		(φ1 == geom.BoxInside && φ2 == geom.BoxInside)
	if indirectUnion {
		return !interKnown
	}
	unionKnown := φ1 == geom.BoxInside || φ2 == geom.BoxInside ||
		(φ1 == geom.BoxOutside && φ2 == geom.BoxOutside)
	return !(interKnown && unionKnown)
}

// chargeBoxTests charges two Lemma-1 box position computations (one per
// polygon): an edge-overlap scan plus the centre ray test, serialised under
// SIMT because threads diverge on whether the centre test is needed.
func chargeBoxTests(b *gpu.Block, p, q *geom.Polygon, cfg Config) {
	v := cfg.Variant
	loopOv := loopOverhead / v.Unroll
	if loopOv < 1 {
		loopOv = 1
	}
	edges := p.NumVertices() + q.NumVertices()
	inShared := v.SharedVertices && edges*8 <= vertexRegionBytes
	b.Uniform(edges * (boxTestOps + centerTestOps + 2*loopOv))
	if inShared {
		b.SharedBroadcast(2 * edges)
	} else {
		b.L1Read(2 * edges)
	}
}

// chargeStackPush charges the warp-simultaneous push of one sub-box per
// thread. With the conflict-free SoA layout each of the five word stores is
// an independent unit-stride access; with the padded contiguous layout the
// stores stride by the record size and serialise on banks (§3.3 "Avoid
// memory bank conflicts"). Bank conflicts are computed from real addresses.
func chargeStackPush(b *gpu.Block, s *blockScratch, v Variant) {
	slots := s.slots
	if len(slots) == 0 {
		return
	}
	if cap(s.addrs) < len(slots) {
		s.addrs = make([]int32, len(slots))
	}
	addrs := s.addrs[:len(slots)]
	for w := 0; w < stackEntryWords; w++ {
		for i, slot := range slots {
			if v.ConflictFreeStack {
				// Five SoA sub-stacks: word w lives in its own array,
				// thread i writes element slot (unit stride).
				addrs[i] = slot
			} else {
				// Contiguous records padded to stackPadWords words.
				addrs[i] = slot*stackPadWords + int32(w)
			}
		}
		b.SharedPattern(addrs)
	}
	b.Uniform(2) // top pointer update (thread 0) + old-top flag clear
	b.SharedAccess(1)
}

// pixelizeBox returns the intersection and union contribution of a box
// (Algorithm 1 lines 22-28). The device is charged for the kernel's
// pixelization: pixels strided across the block's threads, a ray cast over
// every edge per pixel; a box smaller than the block leaves SIMD lanes idle,
// which the cost model charges via Strided. The host obtains the same two
// integers from the band walk; only the variants without indirect union read
// the second.
func pixelizeBox(b *gpu.Block, s *blockScratch, p, q *geom.Polygon, box geom.MBR, cfg Config) (inter, union int64) {
	v := cfg.Variant
	loopOv := loopOverhead / v.Unroll
	if loopOv < 1 {
		loopOv = 1
	}
	edges := p.NumVertices() + q.NumVertices()
	inShared := v.SharedVertices && edges*8 <= vertexRegionBytes

	pixels := int(box.Pixels())
	opsPerPixel := edges*(pixelTestOps+loopOv) + 4
	b.Strided(pixels, opsPerPixel)
	iters := (pixels + cfg.BlockSize - 1) / cfg.BlockSize
	if inShared {
		b.SharedBroadcast(iters * edges)
	} else {
		b.L1Read(iters * edges)
	}

	inter = s.walk.Count(p, q, box)
	if !v.IndirectUnion {
		union = s.walk.Count(p, nil, box) + s.walk.Count(nil, q, box) - inter
	}
	return inter, union
}

// partitionGrid chooses the kx x ky sub-box grid for a block size, as close
// to square as divides the block size evenly.
func partitionGrid(blockDim int) (kx, ky int) {
	kx = 1
	for f := 1; f*f <= blockDim; f++ {
		if blockDim%f == 0 {
			kx = f
		}
	}
	return blockDim / kx, kx
}

// subSampBox returns the tid-th sub-box of a kx x ky partition of box,
// clipped to the box; sub-boxes beyond the box extent are empty.
func subSampBox(box geom.MBR, tid, kx, ky int) geom.MBR {
	ix := int32(tid % kx)
	iy := int32(tid / kx)
	w := (box.Width() + int32(kx) - 1) / int32(kx)
	h := (box.Height() + int32(ky) - 1) / int32(ky)
	sub := geom.MBR{
		MinX: box.MinX + ix*w,
		MinY: box.MinY + iy*h,
		MaxX: box.MinX + (ix+1)*w,
		MaxY: box.MinY + (iy+1)*h,
	}
	if sub.MaxX > box.MaxX {
		sub.MaxX = box.MaxX
	}
	if sub.MaxY > box.MaxY {
		sub.MaxY = box.MaxY
	}
	if sub.IsEmpty() {
		return geom.MBR{}
	}
	return sub
}
