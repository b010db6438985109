package gallery

// This file is the scan-optimized fingerprint layout behind every hot
// TopK sweep. The naive layout — one []float64 slice per record —
// makes the inner loop chase a pointer per subject and leaves the
// compiler a single serial dependency chain per dot product. The
// blocked layout stores records lane-interleaved in groups of
// ScanLanes (4) subjects and feature tiles of scanTileF columns:
//
//	tile 0: [block 0: f0·{r0 r1 r2 r3} f1·{r0 r1 r2 r3} …] [block 1: …] …
//	tile 1: [block 0: f512·{r0 r1 r2 r3} …] …
//
// so a scan streams cache lines strictly sequentially within each
// tile, scores four subjects per feature load with four independent
// accumulator chains (manual 4-way unrolling the compiler keeps in
// registers), and — in the batched kernels — amortizes each streamed
// cache line over a tile of four probes. The feature tiling bounds the
// probe-side working set of a pass: even at connectome-scale
// dimensionality the probe tile (4 probes × scanTileF × 8 B = 16 KiB)
// stays L1-resident while the record stream comes from RAM exactly
// once.
//
// Bit-exactness: each record's dot product still accumulates features
// strictly in ascending order — lanes interleave *records*, never the
// summation order within one record — and tile boundaries only park
// the partial sum in a float64 buffer between passes, which cannot
// change its bits. A blocked scan therefore returns scores
// bit-identical to linalg.Dot over the flat layout (the equivalence
// tests pin this at every cohort size, shard count, and parallelism).

// ScanLanes is the record interleave width of the blocked scan layout:
// kernels score this many subjects per feature load, with one
// independent accumulator chain each. Scan chunk boundaries should be
// multiples of ScanLanes so chunks never split a block.
const ScanLanes = 4

// scanTileF is the feature-tile width of the blocked layout: features
// are split into tiles of this many columns, laid out tile-major, so a
// batched scan's probe tile stays L1-resident regardless of the full
// fingerprint dimensionality.
const scanTileF = 512

// Blocked is the scan-optimized view of a set of fingerprints:
// subject-major in blocks of ScanLanes records, feature-tiled, built
// once at load/compaction time from the flat record accessor. A Blocked
// is immutable after construction and safe for concurrent scans.
type Blocked struct {
	n        int // records (excluding lane padding)
	features int
	blocks   int // ceil(n/ScanLanes)
	f64      []float64
}

// tileWidth returns the width of the feature tile starting at column
// tlo.
func (bk *Blocked) tileWidth(tlo int) int {
	w := bk.features - tlo
	if w > scanTileF {
		w = scanTileF
	}
	return w
}

// tileBase returns the offset of feature tile tlo's region in the
// backing array. Tiles are laid out in ascending order, each holding
// blocks×width×ScanLanes values.
func (bk *Blocked) tileBase(tlo int) int {
	return tlo * bk.blocks * ScanLanes
}

// NewBlocked builds the blocked layout over n records of the given
// dimensionality, reading each record once through fp (which must
// return a vector of exactly features values; the vectors are copied,
// never aliased). Lane padding inside the final block is zero-filled,
// so padded lanes score 0 and are skipped by index range alone.
func NewBlocked(n, features int, fp func(i int) []float64) *Blocked {
	blocks := (n + ScanLanes - 1) / ScanLanes
	bk := &Blocked{
		n:        n,
		features: features,
		blocks:   blocks,
		f64:      make([]float64, blocks*ScanLanes*features),
	}
	for i := 0; i < n; i++ {
		v := fp(i)
		b, l := i/ScanLanes, i%ScanLanes
		for tlo := 0; tlo < features; tlo += scanTileF {
			w := bk.tileWidth(tlo)
			base := bk.tileBase(tlo) + b*w*ScanLanes + l
			for j, x := range v[tlo : tlo+w] {
				bk.f64[base+j*ScanLanes] = x
			}
		}
	}
	return bk
}

// Len returns the number of records in the layout (padding excluded).
func (bk *Blocked) Len() int { return bk.n }

// alignLanes rounds up to a multiple of ScanLanes.
func alignLanes(n int) int {
	return (n + ScanLanes - 1) / ScanLanes * ScanLanes
}

// DotsF64 accumulates the float64 dot product of every record in
// [lo, hi) against the probe into out[i-lo]: the caller zeroes out
// before the first call, and out must hold at least alignLanes(hi-lo)
// entries. lo must be a multiple of ScanLanes; hi is rounded up
// internally (padded lanes accumulate 0). Per record the features are
// consumed strictly in ascending order across tiles, so out[i-lo]
// finishes bit-identical to linalg.Dot(record i, zp).
func (bk *Blocked) DotsF64(lo, hi int, zp []float64, out []float64) {
	hi = alignLanes(hi)
	for tlo := 0; tlo < bk.features; tlo += scanTileF {
		w := bk.tileWidth(tlo)
		pt := zp[tlo : tlo+w]
		region := bk.f64[bk.tileBase(tlo):]
		for r := lo; r < hi; r += ScanLanes {
			base := (r / ScanLanes) * w * ScanLanes
			d := region[base : base+w*ScanLanes : base+w*ScanLanes]
			o := r - lo
			a0, a1, a2, a3 := out[o], out[o+1], out[o+2], out[o+3]
			j := 0
			for _, p := range pt {
				a0 += d[j] * p
				a1 += d[j+1] * p
				a2 += d[j+2] * p
				a3 += d[j+3] * p
				j += ScanLanes
			}
			out[o] = a0
			out[o+1] = a1
			out[o+2] = a2
			out[o+3] = a3
		}
	}
}

// DotsF64Batch is DotsF64 over a batch of probes: outs[p][i-lo]
// accumulates record i's dot product against zps[p]. Probes are
// processed in pairs, so each streamed record block is scored against
// two probes before the next block loads — halving the batched scan's
// memory traffic versus per-probe passes. Pairs (not quads): 8
// accumulators plus the lane loads and probe values fit the 16
// floating-point registers of amd64; a wider tile spills and scans
// slower. Caller zeroes outs; alignment rules match DotsF64. Scores
// are bit-identical to per-probe DotsF64 calls.
func (bk *Blocked) DotsF64Batch(lo, hi int, zps [][]float64, outs [][]float64) {
	p := 0
	for ; p+2 <= len(zps); p += 2 {
		bk.dotsF64x2(lo, hi, zps[p], zps[p+1], outs[p], outs[p+1])
	}
	if p < len(zps) {
		bk.DotsF64(lo, hi, zps[p], outs[p])
	}
}

// dotsF64x2 is the 2-probe × 4-lane kernel: eight independent
// accumulator chains per block, each feature load amortized over two
// probes.
func (bk *Blocked) dotsF64x2(lo, hi int, zp0, zp1 []float64, o0, o1 []float64) {
	hi = alignLanes(hi)
	for tlo := 0; tlo < bk.features; tlo += scanTileF {
		w := bk.tileWidth(tlo)
		t0 := zp0[tlo : tlo+w : tlo+w]
		t1 := zp1[tlo : tlo+w : tlo+w]
		region := bk.f64[bk.tileBase(tlo):]
		for r := lo; r < hi; r += ScanLanes {
			base := (r / ScanLanes) * w * ScanLanes
			d := region[base : base+w*ScanLanes : base+w*ScanLanes]
			o := r - lo
			a00, a10, a20, a30 := o0[o], o0[o+1], o0[o+2], o0[o+3]
			a01, a11, a21, a31 := o1[o], o1[o+1], o1[o+2], o1[o+3]
			j := 0
			for f := 0; f < w; f++ {
				v0, v1, v2, v3 := d[j], d[j+1], d[j+2], d[j+3]
				p0 := t0[f]
				a00 += v0 * p0
				a10 += v1 * p0
				a20 += v2 * p0
				a30 += v3 * p0
				p1 := t1[f]
				a01 += v0 * p1
				a11 += v1 * p1
				a21 += v2 * p1
				a31 += v3 * p1
				j += ScanLanes
			}
			o0[o] = a00
			o0[o+1] = a10
			o0[o+2] = a20
			o0[o+3] = a30
			o1[o] = a01
			o1[o+1] = a11
			o1[o+2] = a21
			o1[o+3] = a31
		}
	}
}
