package shard

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
)

// writeStore builds a 4-shard store from a deterministic cohort and
// persists it, returning the manifest path and the source gallery.
func writeStore(t *testing.T) (string, *gallery.Gallery) {
	t.Helper()
	g := buildGallery(t, 81, 16, 48)
	s, err := FromGallery(g, 4, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	manifest := filepath.Join(t.TempDir(), "g.bpm")
	if err := s.WriteFiles(manifest); err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	return manifest, g
}

// flipByte flips one byte of a file in place.
func flipByte(t *testing.T, path string, offset int64) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if offset < 0 {
		offset += int64(len(buf))
	}
	buf[offset] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
}

func TestOpenRejectsTruncatedManifest(t *testing.T) {
	manifest, _ := writeStore(t)
	full, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	// Cut inside the fixed header, inside the header checksum, and
	// inside a shard entry.
	for _, cut := range []int{4, 20, 30, len(full) / 2, len(full) - 3} {
		if err := os.WriteFile(manifest, full[:cut], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		_, err := Open(manifest)
		if !errors.Is(err, gallery.ErrTruncated) {
			t.Fatalf("Open(truncated at %d) = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestOpenRejectsManifestHeaderCorruption(t *testing.T) {
	manifest, _ := writeStore(t)
	// Flip a byte of the stored header checksum: the header CRC must
	// catch it.
	flipByte(t, manifest, int64(len(manifestMagic))+20)
	_, err := Open(manifest)
	if !errors.Is(err, gallery.ErrChecksum) {
		t.Fatalf("Open(corrupt header) = %v, want ErrChecksum", err)
	}
}

func TestOpenRejectsManifestEntryCorruption(t *testing.T) {
	manifest, _ := writeStore(t)
	// Flip the last byte of the file — inside the final entry's CRC.
	flipByte(t, manifest, -1)
	_, err := Open(manifest)
	if !errors.Is(err, gallery.ErrChecksum) {
		t.Fatalf("Open(corrupt entry) = %v, want ErrChecksum", err)
	}
}

func TestOpenRejectsUnsupportedManifestVersion(t *testing.T) {
	manifest, _ := writeStore(t)
	flipByte(t, manifest, int64(len(manifestMagic))) // version field
	_, err := Open(manifest)
	if !errors.Is(err, ErrManifestVersion) {
		t.Fatalf("Open(bad version) = %v, want ErrManifestVersion", err)
	}
}

func TestOpenManifestWithBadMagicFallsThroughToGallery(t *testing.T) {
	// A manifest whose magic is destroyed is indistinguishable from an
	// arbitrary non-gallery file: Open falls through to the single-file
	// reader, which reports its typed bad-magic error.
	manifest, _ := writeStore(t)
	flipByte(t, manifest, 0)
	_, err := Open(manifest)
	if !errors.Is(err, gallery.ErrBadMagic) {
		t.Fatalf("Open(bad magic) = %v, want gallery.ErrBadMagic", err)
	}
}

// TestMissingShardDegradesToPartial: deleting one shard file yields a
// typed partial failure and a store that still answers queries over the
// surviving shards.
func TestMissingShardDegradesToPartial(t *testing.T) {
	manifest, g := writeStore(t)
	victim := filepath.Join(filepath.Dir(manifest), shardFileName(manifest, 1))
	if err := os.Remove(victim); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	s, err := Open(manifest)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("Open = %v, want ErrPartial", err)
	}
	if !errors.Is(err, ErrShardMissing) {
		t.Fatalf("Open = %v, want wrapped ErrShardMissing", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || len(pe.Faults) != 1 || pe.Faults[0].Shard != 1 {
		t.Fatalf("partial error does not pinpoint shard 1: %v", err)
	}
	assertSurvivorsQueryable(t, s, g, 1)
}

// TestCorruptShardDegradesToPartial: a CRC failure inside one shard
// file faults that shard only; every subject on a surviving shard
// stays identifiable with exact scores.
func TestCorruptShardDegradesToPartial(t *testing.T) {
	manifest, g := writeStore(t)
	victim := filepath.Join(filepath.Dir(manifest), shardFileName(manifest, 2))
	// Flip a fingerprint byte mid-file: the record CRC (and the
	// manifest's whole-file CRC) both catch it.
	flipByte(t, victim, -20)
	s, err := Open(manifest)
	if !errors.Is(err, ErrPartial) || !errors.Is(err, ErrShardCorrupt) {
		t.Fatalf("Open = %v, want ErrPartial wrapping ErrShardCorrupt", err)
	}
	if !errors.Is(err, gallery.ErrChecksum) {
		t.Fatalf("Open = %v, want wrapped gallery.ErrChecksum", err)
	}
	assertSurvivorsQueryable(t, s, g, 2)
}

// TestDimsMismatchFlaggedNotRawError: replacing a shard with a valid
// gallery of different dimensionality is diagnosed as a dims mismatch
// (the satellite fix), not a checksum or decode error.
func TestDimsMismatchFlaggedNotRawError(t *testing.T) {
	manifest, g := writeStore(t)
	impostor := buildGallery(t, 99, 24, 5) // 24 features, store has 16
	victim := filepath.Join(filepath.Dir(manifest), shardFileName(manifest, 0))
	if err := impostor.WriteFile(victim); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s, err := Open(manifest)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("Open = %v, want ErrPartial", err)
	}
	if !errors.Is(err, gallery.ErrDimMismatch) {
		t.Fatalf("Open = %v, want wrapped gallery.ErrDimMismatch", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("no *PartialError in %v", err)
	}
	for _, st := range s.Stats() {
		if st.Meta.Name == shardFileName(manifest, 0) {
			if st.Loaded || st.Err == nil || !errors.Is(st.Err, gallery.ErrDimMismatch) {
				t.Fatalf("stats do not flag the dims mismatch: %+v", st)
			}
		} else if !st.Loaded || st.Err != nil {
			t.Fatalf("healthy shard reported faulty: %+v", st)
		}
	}
	assertSurvivorsQueryable(t, s, g, 0)
}

// assertSurvivorsQueryable checks that, with shard `faulted` gone,
// every subject routed to a surviving shard is still identified top-1
// by its own fingerprint with an exact score, and that faulted-shard
// subjects resolve to -1.
func assertSurvivorsQueryable(t *testing.T, s *Store, g *gallery.Gallery, faulted int) {
	t.Helper()
	lost := 0
	for i, id := range g.IDs() {
		if RouteID(id, 4) == faulted {
			lost++
			if s.Index(id) >= 0 {
				t.Fatalf("subject %q on faulted shard still resolves", id)
			}
			continue
		}
		top, err := s.TopKCtx(context.Background(), g.Fingerprint(i), 1, 1)
		if err != nil {
			t.Fatalf("TopK(%q): %v", id, err)
		}
		if top[0].ID != id {
			t.Fatalf("subject %q identified as %q on degraded store", id, top[0].ID)
		}
	}
	if lost == 0 {
		t.Fatal("test cohort routed nothing to the faulted shard")
	}
	if s.Len() != g.Len()-lost {
		t.Fatalf("degraded store Len() = %d, want %d", s.Len(), g.Len()-lost)
	}
}

// TestManifestWithLegacyQuantTablesOpensExact pins the on-disk
// compatibility rule for stores written with the removed -quantize
// option (manifest flag bit 0 plus a 16·features-byte table block): the
// manifest still opens, the tables are checksummed and discarded,
// re-encoding drops the bit, and the store answers with float64 scores
// bit-identical to the same store written without the flag. A table
// block that is truncated or fails the header CRC is still rejected.
func TestManifestWithLegacyQuantTablesOpensExact(t *testing.T) {
	manifest, g := writeStore(t)
	plain, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	legacy := withLegacyQuantTables(t, plain)
	if len(legacy) != len(plain)+16*g.Features() {
		t.Fatalf("legacy manifest is %d bytes, want %d", len(legacy), len(plain)+16*g.Features())
	}
	// Shard entries name files relative to the manifest's directory, so
	// a second manifest beside the first describes the same shard files.
	legacyPath := filepath.Join(filepath.Dir(manifest), "legacy.bpm")
	write := func(buf []byte) {
		t.Helper()
		if err := os.WriteFile(legacyPath, buf, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}

	m, err := decodeManifest(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("decodeManifest(legacy): %v", err)
	}
	again, err := m.encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again, plain) {
		t.Fatal("re-encoding a legacy manifest did not yield the unflagged manifest byte for byte")
	}

	write(legacy)
	flagged, err := Open(legacyPath)
	if err != nil {
		t.Fatalf("Open(legacy): %v", err)
	}
	unflagged, err := Open(manifest)
	if err != nil {
		t.Fatalf("Open(plain): %v", err)
	}
	probes := randomGroup(82, g.Features(), 12)
	for _, par := range []int{1, 0, 3} {
		want, err := unflagged.QueryAllCtx(context.Background(), probes, 5, par)
		if err != nil {
			t.Fatalf("par=%d: unflagged QueryAll: %v", par, err)
		}
		got, err := flagged.QueryAllCtx(context.Background(), probes, 5, par)
		if err != nil {
			t.Fatalf("par=%d: legacy QueryAll: %v", par, err)
		}
		for j := range want {
			for r := range want[j] {
				if got[j][r] != want[j][r] {
					t.Fatalf("par=%d probe %d rank %d: legacy %+v != unflagged %+v", par, j, r, got[j][r], want[j][r])
				}
			}
		}
	}

	tables := len(manifestMagic) + 20 // no feature index: the block follows the fixed header
	write(legacy[:tables+16*g.Features()/2])
	if _, err := Open(legacyPath); !errors.Is(err, gallery.ErrTruncated) {
		t.Fatalf("Open(truncated table block) = %v, want ErrTruncated", err)
	}
	write(legacy)
	flipByte(t, legacyPath, int64(tables)+10)
	if _, err := Open(legacyPath); !errors.Is(err, gallery.ErrChecksum) {
		t.Fatalf("Open(corrupt table block) = %v, want ErrChecksum", err)
	}
}
