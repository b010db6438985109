package gallery

import (
	"sync"

	"brainprint/internal/linalg"
)

// This file is the streaming kernel behind every exact TopK sweep and
// IVF training (eight records per panel against the centroid rows), and
// the gather behind every IVF query (DotsAt). Both read the one
// in-memory image a gallery has — flat, subject-major, z-scored rows —
// through a zero-copy view: there is no scan-side copy of the records,
// no build step and nothing to invalidate. "Blocked" means
// register-blocked, not memory-blocked: a pass scores ScanLanes (4)
// consecutive rows against one probe (linalg.Dot4), two (dotsF64x2) or,
// where the CPU has AVX2, a panel of eight (scankernel_amd64.s: the
// probes of a batch ride the vector lanes, so each broadcast row value
// meets eight probes in two multiplies). On the go bodies the sweep is
// compute-bound — 82 % of the scalar multiply-add ceiling, 12 % of
// stream bandwidth — so independent accumulator chains and arithmetic
// per loaded value are what make a kernel fast, and neither a
// lane-interleaved copy nor feature tiling earns its keep. The panel
// kernel is not: left to the hardware prefetcher, a serial 16-probe
// sweep of 100k rows ran at 66–69 % of the kernel's rate on an
// L3-resident cohort (BenchmarkScanUnits against
// BenchmarkBlockedKernels' f64batch16), because each stripe's first
// panel waited on memory. So the kernel prefetches two tiles ahead
// across stripe boundaries, and a sweep packs its probe panels once per
// query, not per stripe; the sweep now runs at 83–88 % of that rate.
// DESIGN.md §8 has the numbers.
//
// Bit-exactness: every chain, scalar or vector lane, accumulates one
// record's features strictly in ascending order as acc = acc +
// row[f]*probe[f] from +0, with the multiply and the add rounded the
// way the compiler rounds that statement in linalg.Dot — separately on
// amd64 (which the assembly matches with VMULPD + VADDPD, never an
// FMA), fused on arm64 (which has only the go bodies). So each score is
// bit-identical to linalg.Dot(row, probe) of the same build, whichever
// body computed it; scores may differ between an amd64 and an arm64
// build, as linalg.Dot itself does. The equivalence tests pin this on
// both bodies at every cohort size, shard count and parallelism, and CI
// repeats them under GOAMD64=v3 to catch a toolchain that starts fusing.

// ScanLanes is the row-tile width of the streaming kernels: they score
// this many consecutive records per pass, one independent accumulator
// chain per record and probe. Ranges need no alignment to it.
const ScanLanes = 4

// Blocked is the scannable view of a set of fingerprints: flat
// subject-major rows, aliased from their owner (a Gallery's records, an
// IVF index's centroids), never copied. The name is historical — it is
// the register-blocked kernels' receiver, not a blocked memory layout.
// A view covers the rows present when it was taken and is safe for
// concurrent scans as long as those rows are not overwritten.
type Blocked struct {
	features int
	rows     []float64 // len = records × features
}

// NewBlocked returns the view over rows, a flat subject-major matrix of
// len(rows)/features records. The slice is aliased, not copied.
func NewBlocked(features int, rows []float64) *Blocked {
	return &Blocked{features: features, rows: rows}
}

// Len returns the number of records in the view.
func (bk *Blocked) Len() int { return len(bk.rows) / bk.features }

// DotsF64 writes the float64 dot product of every record in [lo, hi)
// against the probe into out[i-lo], four rows per pass plus a scalar
// tail. Each value is bit-identical to linalg.Dot(record i, zp).
func (bk *Blocked) DotsF64(lo, hi int, zp []float64, out []float64) {
	f := bk.features
	i := lo
	for ; i+ScanLanes <= hi; i += ScanLanes {
		r := bk.rows[i*f : (i+ScanLanes)*f]
		o := out[i-lo : i-lo+ScanLanes]
		o[0], o[1], o[2], o[3] = linalg.Dot4(r[:f], r[f:2*f], r[2*f:3*f], r[3*f:], zp)
	}
	for ; i < hi; i++ {
		out[i-lo] = linalg.Dot(bk.rows[i*f:(i+1)*f], zp)
	}
}

// DotsF64Batch is DotsF64 over a batch of probes: outs[p][i-lo] receives
// record i's dot product against zps[p], bit-identical to per-probe
// DotsF64 calls. It packs the batch's probe panels (packPanels) and
// scores through dotsBatch, the body every exact sweep runs; a sweep
// over many ranges packs once and calls dotsBatch per range instead.
func (bk *Blocked) DotsF64Batch(lo, hi int, zps [][]float64, outs [][]float64) {
	sp := packPanels(zps, bk.features)
	bk.dotsBatch(lo, hi, zps, *sp, outs)
	panelPool.Put(sp)
}

// dotsBatch scores rows [lo, hi) against zps into outs, as
// DotsF64Batch. panels are the batch's packed probe panels (empty when
// the panel kernel does not run): where there are any, the probes they
// cover go through the assembly kernel; the row tail (< ScanLanes
// rows), a trailing one or two probes, and everything on other
// machines take the pure-go bodies. panels are only read, so the
// concurrent runs of a sweep share them.
func (bk *Blocked) dotsBatch(lo, hi int, zps [][]float64, panels []float64, outs [][]float64) {
	n := 0 // probes the panels cover
	if mid := hi - (hi-lo)%ScanLanes; len(panels) > 0 && mid > lo {
		n = min(len(zps), len(panels)/bk.features)
		bk.dotsPanels(lo, mid, panels, outs[:n])
		bk.dotsGo(mid, hi, zps[:n], outs[:n], mid-lo)
	}
	bk.dotsGo(lo, hi, zps[n:], outs[n:], 0)
}

// dotsGo is the pure-go batch body, writing record i's scores at
// outs[p][off+i-lo]. Probes are processed in pairs, so each loaded
// record value is scored against two probes — half the loads of
// per-probe passes. Pairs (not quads): 8 accumulators plus the row and
// probe values fit the 16 floating-point registers of amd64; a wider
// tile spills and scans slower.
func (bk *Blocked) dotsGo(lo, hi int, zps [][]float64, outs [][]float64, off int) {
	p := 0
	for ; p+2 <= len(zps); p += 2 {
		bk.dotsF64x2(lo, hi, zps[p], zps[p+1], outs[p][off:], outs[p+1][off:])
	}
	if p < len(zps) {
		bk.DotsF64(lo, hi, zps[p], outs[p][off:])
	}
}

// panelLanes is the probe width of the assembly kernel: two 4-lane YMM
// vectors per feature. panelMinProbes is the smallest batch (or batch
// remainder) it beats the go bodies on — measured, DESIGN.md §8; one and
// two probes are the go bodies' own tile shapes and stay there.
const (
	panelLanes     = 8
	panelMinProbes = 3
)

// panelPool holds packed-panel buffers between sweeps, so steady-state
// queries pack into the same few buffers.
var panelPool sync.Pool

// packPanels packs the probes of zps that the panel kernel scores —
// none without AVX2; otherwise every whole panel of eight, plus a
// trailing partial one of at least panelMinProbes — feature-major,
// eight per panel (panel q holds probe 8q+l's feature j at
// [(q*features+j)*8+l], unused lanes zero), so one vector load fetches a
// feature of four probes. The buffer comes from panelPool, empty when
// no probe is packed, and goes back there once no sweep reads it.
func packPanels(zps [][]float64, features int) *[]float64 {
	n := 0 // probes the panels cover
	if useAVX2 {
		if n = len(zps); n%panelLanes < panelMinProbes {
			n -= n % panelLanes
		}
	}
	size := (n + panelLanes - 1) / panelLanes * panelLanes * features
	sp, _ := panelPool.Get().(*[]float64)
	if sp == nil || cap(*sp) < size {
		sp = new([]float64)
		*sp = make([]float64, size)
	}
	panels := (*sp)[:size]
	clear(panels[n/panelLanes*panelLanes*features:]) // a partial panel's unused lanes
	for p, zp := range zps[:n] {
		panel := panels[p/panelLanes*panelLanes*features:]
		for j, v := range zp[:features] {
			panel[j*panelLanes+p%panelLanes] = v
		}
	}
	*sp = panels
	return sp
}

// dotsPanels scores rows [lo, hi), hi-lo a positive multiple of
// ScanLanes, against the first len(outs) probes of the packed panels
// through the assembly kernel, which broadcasts each row value across
// the lanes and stores lane p's scores straight into outs[p]. It tells
// the kernel how many rows the view holds past lo, so the kernel's
// prefetch runs ahead across the end of the range but never past the
// view's last row.
func (bk *Blocked) dotsPanels(lo, hi int, panels []float64, outs [][]float64) {
	f := bk.features
	rows := bk.rows[lo*f : hi*f]
	for p := 0; p < len(outs); p += panelLanes {
		n := min(panelLanes, len(outs)-p)
		var dst [panelLanes]*float64
		for l := range n {
			dst[l] = &outs[p+l][:hi-lo][0]
		}
		dotsPanelAVX2(&rows[0], (hi-lo)/ScanLanes, f, &panels[p*f], &dst, n, bk.Len()-lo)
	}
}

// dotsF64x2 is the 4-row × 2-probe kernel: eight independent
// accumulator chains per pass, each row value loaded once for both
// probes. The feature loop is unrolled by two (j is the odd index of
// each feature pair, which lets the compiler drop all but one bounds
// check) with an odd-width tail: the plain loop is bound by loop
// overhead and spills, not arithmetic (4,096 × 100, four probes: 616 µs
// plain, 573 µs unrolled, 577 µs for the interleaved layout it
// replaced). Unrolling leaves every chain's ascending accumulation
// order untouched.
func (bk *Blocked) dotsF64x2(lo, hi int, zp0, zp1 []float64, o0, o1 []float64) {
	f := bk.features
	zp0, zp1 = zp0[:f], zp1[:f]
	i := lo
	for ; i+ScanLanes <= hi; i += ScanLanes {
		r := bk.rows[i*f : (i+ScanLanes)*f]
		r0, r1, r2, r3 := r[:f], r[f:][:f], r[2*f:][:f], r[3*f:][:f]
		var a00, a10, a20, a30, a01, a11, a21, a31 float64
		for j := 1; j < f; j += 2 {
			p0, p1 := zp0[j-1], zp1[j-1]
			v0 := r0[j-1]
			a00 += v0 * p0
			a01 += v0 * p1
			v1 := r1[j-1]
			a10 += v1 * p0
			a11 += v1 * p1
			v2 := r2[j-1]
			a20 += v2 * p0
			a21 += v2 * p1
			v3 := r3[j-1]
			a30 += v3 * p0
			a31 += v3 * p1
			p0, p1 = zp0[j], zp1[j]
			v0 = r0[j]
			a00 += v0 * p0
			a01 += v0 * p1
			v1 = r1[j]
			a10 += v1 * p0
			a11 += v1 * p1
			v2 = r2[j]
			a20 += v2 * p0
			a21 += v2 * p1
			v3 = r3[j]
			a30 += v3 * p0
			a31 += v3 * p1
		}
		if f&1 == 1 {
			p0, p1 := zp0[f-1], zp1[f-1]
			v0 := r0[f-1]
			a00 += v0 * p0
			a01 += v0 * p1
			v1 := r1[f-1]
			a10 += v1 * p0
			a11 += v1 * p1
			v2 := r2[f-1]
			a20 += v2 * p0
			a21 += v2 * p1
			v3 := r3[f-1]
			a30 += v3 * p0
			a31 += v3 * p1
		}
		a, b := o0[i-lo:i-lo+ScanLanes], o1[i-lo:i-lo+ScanLanes]
		a[0], a[1], a[2], a[3] = a00, a10, a20, a30
		b[0], b[1], b[2], b[3] = a01, a11, a21, a31
	}
	for ; i < hi; i++ {
		row := bk.rows[i*f : (i+1)*f]
		o0[i-lo] = linalg.Dot(row, zp0)
		o1[i-lo] = linalg.Dot(row, zp1)
	}
}

// gatherLanes is DotsAt's group: the records scored per kernel call.
const gatherLanes = 8

// DotsAt writes to out[t] the dot product of record idx[t] against the
// probe, bit-identical to linalg.Dot(record idx[t], zp); indices may
// repeat and come in any order. Records go eight at a time through the
// row-lane assembly kernel where the CPU has AVX2 (the F mod 4 tail
// features finish here), otherwise through linalg.Dot8; a partial last
// group repeats its last record.
func (bk *Blocked) DotsAt(idx []uint32, zp, out []float64) {
	f := bk.features
	zp, out = zp[:f], out[:len(idx)]
	var r [gatherLanes][]float64
	var s [gatherLanes]float64
	for lo := 0; lo < len(idx); lo += gatherLanes {
		n := min(gatherLanes, len(idx)-lo)
		for t := range r {
			i := int(idx[lo+min(t, n-1)])
			r[t] = bk.rows[i*f : (i+1)*f]
		}
		if useAVX2 {
			dotsAtAVX2(&r, f, &zp[0], &s)
			for t := range n {
				for j := f - f%4; j < f; j++ {
					s[t] += r[t][j] * zp[j]
				}
			}
		} else {
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = linalg.Dot8(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], zp)
		}
		copy(out[lo:lo+n], s[:n])
	}
}

// ScanKernel names the body batch scans and gathers run on this
// machine: "avx2" for the assembly kernels, "go" for the pure-go bodies.
func ScanKernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}
