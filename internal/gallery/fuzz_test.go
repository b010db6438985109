package gallery

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSeedGallery renders a small valid gallery file to seed the
// corpus: the fuzzer mutates outward from well-formed inputs, which
// reaches far deeper into the decoder than random bytes would.
func fuzzSeedGallery(tb testing.TB, features int, index []int, subjects int) []byte {
	tb.Helper()
	var g *Gallery
	if index != nil {
		g = WithFeatureIndex(index)
	} else {
		g = New(features)
	}
	vec := make([]float64, features)
	for s := 0; s < subjects; s++ {
		for i := range vec {
			vec[i] = float64(i*subjects+s) - float64(features)/2
		}
		if err := g.Enroll(string(rune('a'+s))+"-subject", vec); err != nil {
			tb.Fatalf("seed enroll: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		tb.Fatalf("seed save: %v", err)
	}
	return buf.Bytes()
}

// FuzzDecodeGallery throws adversarial bytes at the gallery file
// decoder. The decoder must never panic, never over-allocate beyond the
// data actually present (readN bounds growth), and on success must
// return a self-consistent gallery; round-tripping a successfully
// decoded input must also succeed.
func FuzzDecodeGallery(f *testing.F) {
	valid := fuzzSeedGallery(f, 6, nil, 3)
	f.Add(valid)
	f.Add(fuzzSeedGallery(f, 4, []int{7, 1, 3, 5}, 2))
	f.Add(valid[:len(valid)-5])      // torn record
	f.Add(valid[:20])                // torn header
	f.Add([]byte("BPGALRY\x00junk")) // corrupt after magic
	f.Add([]byte{})                  // empty
	mut := append([]byte(nil), valid...)
	mut[len(mut)-3] ^= 0x55 // record CRC flip
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.Len() < 0 || g.Features() <= 0 {
			t.Fatalf("decoded inconsistent gallery: len=%d features=%d", g.Len(), g.Features())
		}
		for i, id := range g.IDs() {
			if g.Index(id) != i {
				t.Fatalf("index map inconsistent at %d (%q)", i, id)
			}
			if len(g.Fingerprint(i)) != g.Features() {
				t.Fatalf("record %d has %d features, want %d", i, len(g.Fingerprint(i)), g.Features())
			}
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatalf("re-encoding a decoded gallery failed: %v", err)
		}
	})
}

// FuzzDotsPanel pins both assembly kernels to the pure-go bodies on
// arbitrary float64 bit patterns — ±0, subnormals, ±Inf, NaN, values
// whose products overflow or cancel — at fuzzed dimensions, ranges and
// batch sizes: every score that is not NaN must match bit for bit, and
// a NaN must be a NaN on both (payloads are not part of the contract).
// raw is read as little-endian float64s, cycled to fill the rows and
// then the probes; its bytes also pick the gather kernel's index list
// (3·probes indices, repeats and any order) scored against probe 0.
func FuzzDotsPanel(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(99), uint8(52), uint8(5), uint8(15), le(1.5, -2.25, 1e-3, 3, -0.75, 1e3, 7))
	f.Add(uint8(2), uint8(8), uint8(0), uint8(7), le(0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 1))
	f.Add(uint8(6), uint8(11), uint8(3), uint8(16), le(math.Inf(1), 1, math.Inf(-1), 0, math.NaN(), -1, 2))
	f.Add(uint8(30), uint8(4), uint8(1), uint8(2), le(math.MaxFloat64, -math.MaxFloat64, 1e-300, 1+1.0/(1<<30), -(1+1.0/(1<<29))))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, features, records, lo, probes uint8, raw []byte) {
		if !useAVX2 {
			t.Skip("no assembly kernel on this machine")
		}
		nf, nr, np := 1+int(features)%128, 1+int(records)%64, 1+int(probes)%20
		from := int(lo) % nr
		next := 0
		fill := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				if len(raw) >= 8 {
					out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[next%(len(raw)-7):]))
					next += 8
				}
			}
			return out
		}
		bk := NewBlocked(nf, fill(nr*nf))
		zps := make([][]float64, np)
		got, want := make([][]float64, np), make([][]float64, np)
		for p := range zps {
			zps[p] = fill(nf)
			got[p], want[p] = make([]float64, nr-from), make([]float64, nr-from)
		}
		bk.DotsF64Batch(from, nr, zps, got)
		useAVX2 = false
		bk.DotsF64Batch(from, nr, zps, want)
		useAVX2 = true
		same := func(g, w float64) bool {
			return math.Float64bits(g) == math.Float64bits(w) || (math.IsNaN(g) && math.IsNaN(w))
		}
		for p := range want {
			for i, w := range want[p] {
				if g := got[p][i]; !same(g, w) {
					t.Fatalf("%d×%d [%d,%d) %d probes: probe %d record %d = %v (%#x), go body %v (%#x)",
						nr, nf, from, nr, np, p, from+i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
		idx := make([]uint32, 3*np)
		for j := range idx {
			if len(raw) > 0 {
				idx[j] = uint32(int(raw[j%len(raw)])+j*from) % uint32(nr)
			}
		}
		gotAt, wantAt := make([]float64, len(idx)), make([]float64, len(idx))
		bk.DotsAt(idx, zps[0], gotAt)
		useAVX2 = false
		bk.DotsAt(idx, zps[0], wantAt)
		useAVX2 = true
		for j, w := range wantAt {
			if g := gotAt[j]; !same(g, w) {
				t.Fatalf("%d×%d DotsAt %v: index %d (record %d) = %v (%#x), go body %v (%#x)",
					nr, nf, idx, j, idx[j], g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	})
}
