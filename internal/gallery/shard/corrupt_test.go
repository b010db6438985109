package shard

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// TestManifestWithLegacyQuantTablesRefused pins the compatibility
// horizon for stores written with the long-removed -quantize option
// (manifest flag bit 0 plus a 16·features-byte table block): the bit is
// retired, so both the decoder and Open refuse such a manifest as
// carrying unknown flags instead of opening it.
func TestManifestWithLegacyQuantTablesRefused(t *testing.T) {
	manifest, _ := writeStore(t)
	plain, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	legacy := withLegacyQuantTables(t, plain)
	const want = "unknown manifest flags 0x1"
	if _, err := decodeManifest(bytes.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("decodeManifest(legacy) = %v, want %q", err, want)
	}
	// Shard entries name files relative to the manifest's directory, so
	// a second manifest beside the first describes the same shard files.
	legacyPath := filepath.Join(filepath.Dir(manifest), "legacy.bpm")
	if err := os.WriteFile(legacyPath, legacy, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if s, err := Open(legacyPath); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open(legacy) = %v, %v, want %q", s, err, want)
	}
	if _, err := Open(manifest); err != nil {
		t.Fatalf("Open(plain): %v", err)
	}
}
