package shard

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// withLegacyQuantTables rewrites an encoded undefended manifest the way
// the long-removed -quantize option wrote it: the now-retired flag bit 0
// set and a 16·features-byte table block (per-feature scale, then
// offset) after the feature index, header CRC recomputed.
func withLegacyQuantTables(tb testing.TB, plain []byte) []byte {
	tb.Helper()
	const fixed = len(manifestMagic) + 20
	if flags := binary.LittleEndian.Uint32(plain[fixed-4:]); flags != 0 {
		tb.Fatalf("withLegacyQuantTables: source manifest already carries flags %#x", flags)
	}
	features := int(binary.LittleEndian.Uint32(plain[fixed-12:]))
	indexEnd := fixed + 4*int(binary.LittleEndian.Uint32(plain[fixed-8:]))
	out := append([]byte(nil), plain[:indexEnd]...)
	binary.LittleEndian.PutUint32(out[fixed-4:], 1<<0)
	for f := 0; f < features; f++ {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(0.125*float64(f+1)))
	}
	for f := 0; f < features; f++ {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(-0.5+float64(f)))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return append(out, plain[indexEnd+4:]...)
}

// fuzzSeedManifest renders a valid manifest to seed the corpus.
func fuzzSeedManifest(tb testing.TB, features int, index []int, shards int) []byte {
	tb.Helper()
	m := &Manifest{Features: features, FeatureIndex: index}
	for i := 0; i < shards; i++ {
		m.Shards = append(m.Shards, Meta{
			Name: "x.s00" + string(rune('0'+i)) + ".bpg", Records: 3 + i, Features: features,
			Bytes: 1000 + int64(i), CRC: uint32(0xdead0000 + i),
		})
	}
	buf, err := m.encode()
	if err != nil {
		tb.Fatalf("seed manifest: %v", err)
	}
	return buf
}

// FuzzDecodeManifest throws adversarial bytes at the shard manifest
// decoder: no panics, allocation bounded by the data actually present,
// and any successfully decoded manifest must re-encode cleanly.
func FuzzDecodeManifest(f *testing.F) {
	plain := fuzzSeedManifest(f, 5, nil, 2)
	f.Add(plain)
	f.Add(withLegacyQuantTables(f, fuzzSeedManifest(f, 3, []int{9, 2, 4}, 4))) // retired flag bit 0: refused
	f.Add(plain[:15])                                                          // torn header
	f.Add(plain[:len(plain)-7])                                                // torn entry
	f.Add([]byte("BPSHMAN\x00\x01"))                                           // magic then garbage
	f.Add([]byte{})
	mut := append([]byte(nil), plain...)
	mut[9] ^= 0x01 // version flip
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.Features <= 0 || len(m.Shards) == 0 {
			t.Fatalf("decoded inconsistent manifest: %+v", m)
		}
		if _, err := m.encode(); err != nil {
			t.Fatalf("re-encoding a decoded manifest failed: %v", err)
		}
	})
}
