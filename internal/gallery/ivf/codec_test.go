package ivf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
)

// codecIndex trains a small index with uneven shards for the sidecar
// round-trip and corruption tests.
func codecIndex(t testing.TB) *Index {
	t.Helper()
	counts := []int{33, 7, 20}
	return buildIndex(t, Config{Cells: 5, Seed: 41}, 10, counts, 43)
}

// sameIndex compares everything the codec persists (the derived scan
// layout is rebuilt on decode and pinned indirectly via RankCells).
func sameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if got.Features() != want.Features() || got.Cells() != want.Cells() ||
		got.Seed() != want.Seed() || got.Shards() != want.Shards() {
		t.Fatalf("geometry: got (%d,%d,%d,%d), want (%d,%d,%d,%d)",
			got.Features(), got.Cells(), got.Seed(), got.Shards(),
			want.Features(), want.Cells(), want.Seed(), want.Shards())
	}
	for c := 0; c < want.Cells(); c++ {
		gc, wc := centroid(got, c), centroid(want, c)
		for f := range wc {
			if gc[f] != wc[f] {
				t.Fatalf("cell %d feature %d: centroid %v != %v", c, f, gc[f], wc[f])
			}
		}
	}
	for si := 0; si < want.Shards(); si++ {
		if got.ShardCount(si) != want.ShardCount(si) {
			t.Fatalf("shard %d count %d != %d", si, got.ShardCount(si), want.ShardCount(si))
		}
		for c := 0; c < want.Cells(); c++ {
			gl, wl := got.Postings(si, c), want.Postings(si, c)
			if len(gl) != len(wl) {
				t.Fatalf("shard %d cell %d: %d postings != %d", si, c, len(gl), len(wl))
			}
			for i := range wl {
				if gl[i] != wl[i] {
					t.Fatalf("shard %d cell %d entry %d: %d != %d", si, c, i, gl[i], wl[i])
				}
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	x := codecIndex(t)
	got, err := Decode(bytes.NewReader(x.Encode()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sameIndex(t, got, x)
	// The decoded index must be immediately probeable: same cell
	// ranking as the source for an arbitrary probe.
	probe := make([]float64, x.Features())
	for f := range probe {
		probe[f] = float64(f%3) - 1
	}
	a, b := x.RankCells(probe, x.Cells()), got.RankCells(probe, x.Cells())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decoded index ranks cells differently at %d: %d != %d", i, b[i], a[i])
		}
	}
}

func TestWriteReadFileRoundTrip(t *testing.T) {
	x := codecIndex(t)
	path := SidecarPath(filepath.Join(t.TempDir(), "g.bpm"))
	if err := x.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sameIndex(t, got, x)
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	buf := codecIndex(t).Encode()
	buf[0] ^= 0xFF
	if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, ErrMagic) {
		t.Fatalf("Decode(bad magic) = %v, want ErrMagic", err)
	}
}

func TestDecodeRejectsHeaderCorruption(t *testing.T) {
	// Any header field flip must fail the header CRC before the fields
	// are believed.
	for _, off := range []int{8, 12, 16, 20, 24} {
		buf := codecIndex(t).Encode()
		buf[off] ^= 0x01
		if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, gallery.ErrChecksum) {
			t.Fatalf("Decode(header flip at %d) = %v, want ErrChecksum", off, err)
		}
	}
}

// patchHeader rewrites a little-endian u32 header field and recomputes
// the header CRC, so corruption tests can exercise the checks BEHIND
// the checksum.
func patchHeader(buf []byte, off int, v uint32) {
	binary.LittleEndian.PutUint32(buf[off:], v)
	binary.LittleEndian.PutUint32(buf[headerLen:], crc32.ChecksumIEEE(buf[:headerLen]))
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	buf := codecIndex(t).Encode()
	patchHeader(buf, 8, SidecarVersion+1)
	if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode(future version) = %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsImplausibleGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int
		v    uint32
	}{
		{"zero features", 12, 0},
		{"huge features", 12, uint32(maxSidecarFeatures + 1)},
		{"zero cells", 16, 0},
		{"huge cells", 16, uint32(maxCells + 1)},
		{"zero shards", 20, 0},
		{"huge shards", 20, uint32(maxSidecarShards + 1)},
	} {
		buf := codecIndex(t).Encode()
		patchHeader(buf, tc.off, tc.v)
		if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode(%s) = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	buf := codecIndex(t).Encode()
	for _, n := range []int{0, 7, headerLen, headerLen + 4, headerLen + 20, len(buf) - 1} {
		if _, err := Decode(bytes.NewReader(buf[:n])); !errors.Is(err, gallery.ErrTruncated) {
			t.Fatalf("Decode(first %d bytes) = %v, want ErrTruncated", n, err)
		}
	}
}

func TestDecodeRejectsSectionCorruption(t *testing.T) {
	x := codecIndex(t)
	buf := x.Encode()
	centroidAt := headerLen + 4 + 8 // first centroid's second byte-ish
	flip := append([]byte(nil), buf...)
	flip[centroidAt] ^= 0x10
	if _, err := Decode(bytes.NewReader(flip)); !errors.Is(err, gallery.ErrChecksum) {
		t.Fatalf("Decode(centroid flip) = %v, want ErrChecksum", err)
	}
	// A flip of a posting entry fails that shard's section CRC (list
	// lengths and the record count stay intact, so the structural
	// guards stay quiet and the checksum must be what catches it).
	shardAt := -1
	off := headerLen + 4 + x.Cells()*x.Features()*8 + 4 + 4
	for c := 0; c < x.Cells(); c++ {
		n := len(x.Postings(0, c))
		if n > 0 {
			shardAt = off + 4 // low byte of the first entry
			break
		}
		off += 4 + n*4
	}
	if shardAt < 0 {
		t.Fatal("no non-empty posting list in shard 0")
	}
	flip = append([]byte(nil), buf...)
	flip[shardAt] ^= 0x10
	if _, err := Decode(bytes.NewReader(flip)); !errors.Is(err, gallery.ErrChecksum) {
		t.Fatalf("Decode(shard flip) = %v, want ErrChecksum", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	buf := append(codecIndex(t).Encode(), 0x00)
	if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode(trailing byte) = %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsForgedShardCount targets the allocation guard: a
// shard header declaring more records than its posting lists actually
// hold (with a recomputed section CRC, so the checksum cannot save us)
// must fail loudly BEFORE validate sizes its seen bitmap off the forged
// count.
func TestDecodeRejectsForgedShardCount(t *testing.T) {
	x := codecIndex(t)
	buf := x.Encode()
	slo := headerLen + 4 + x.Cells()*x.Features()*8 + 4
	// Shard section: count u32, cells × (len u32 + len·u32), CRC u32.
	slen := 4
	for c := 0; c < x.Cells(); c++ {
		slen += 4 + len(x.Postings(0, c))*4
	}
	binary.LittleEndian.PutUint32(buf[slo:], uint32(x.ShardCount(0))+1_000_000)
	binary.LittleEndian.PutUint32(buf[slo+slen:], crc32.ChecksumIEEE(buf[slo:slo+slen]))
	_, err := Decode(bytes.NewReader(buf))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode(forged shard count) = %v, want ErrCorrupt", err)
	}
}

func TestWriteFileIsAtomic(t *testing.T) {
	// Writing over an existing sidecar must never leave a torn file:
	// the temp-write + rename pattern means the destination is either
	// the old content or the new, so a decode always succeeds.
	x := codecIndex(t)
	path := filepath.Join(t.TempDir(), "g.bpm.ivf")
	if err := x.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	y := buildIndex(t, Config{Cells: 3, Seed: 99}, 10, []int{12}, 47)
	if err := y.WriteFile(path); err != nil {
		t.Fatalf("WriteFile (overwrite): %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sameIndex(t, got, y)
}
