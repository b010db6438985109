package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"brainprint/internal/defense"
	"brainprint/internal/gallery"
)

// The shard manifest file format, version 1. All integers are
// little-endian, all checksums CRC-32 (IEEE). A sharded store is one
// manifest file plus N shard files, each shard file a standard gallery
// file (gallery/codec.go) — the per-shard codec is reused wholesale, so
// a single shard file opens with today's tooling unchanged.
//
//	header:
//	  magic        [8]byte  "BPSHMAN\x00"
//	  version      uint32   1
//	  shards       uint32   shard count N (> 0)
//	  features     uint32   fingerprint dimensionality (> 0)
//	  indexLen     uint32   feature-index length (0 = none, else == features)
//	  flags        uint32   bit 0: retired (refused, never reused)
//	                        bit 1: defense descriptor present
//	  featureIndex [indexLen]uint32
//	  defenseLen   uint32              only when flag bit 1 is set
//	  defense      [defenseLen]byte    defense descriptor blob
//	                                   (defense.EncodeDescriptor)
//	  headerCRC    uint32   over every preceding header byte
//	entry (×N, one per shard, in shard order):
//	  nameLen      uint16
//	  name         [nameLen]byte   shard filename, relative to the manifest
//	  records      uint32   enrolled subjects in the shard
//	  features     uint32   the shard file's own dimensionality
//	  bytes        uint64   shard file size
//	  fileCRC      uint32   CRC-32 of the entire shard file contents
//	  entryCRC     uint32   over every preceding entry byte
//
// Entries are individually checksummed like gallery records, so a
// truncated manifest is detected mid-entry and a corrupt entry is
// pinpointed to its shard. The per-entry features field exists purely
// for diagnosis: it lets `gallery info` flag a manifest↔shard dims
// mismatch (a swapped or regenerated shard file) as such instead of
// surfacing a raw decode error.
//
// Flag bit 0 marked stores written with the long-removed -quantize
// option; it is retired, so the decoder refuses it as an unknown flag,
// and it is never reused.
const (
	manifestMagic = "BPSHMAN\x00"

	// ManifestVersion is the shard manifest format version this package
	// reads and writes.
	ManifestVersion = 1

	// maxShards bounds the plausible shard count so a corrupt manifest
	// cannot drive an absurd allocation before its checksum is read.
	maxShards = 1 << 16

	// flagDefended marks a manifest that carries a defense descriptor —
	// the anonymization pipeline the store's records were built through,
	// persisted so defended galleries survive reopen, compaction, and
	// replication (see internal/defense and DESIGN.md §12).
	flagDefended = 1 << 1

	// maxDefenseBlob bounds the descriptor blob length so a corrupt
	// manifest cannot drive an absurd allocation before the CRC is read.
	maxDefenseBlob = 1 << 24
)

// Typed manifest and store errors, matched with errors.Is. Truncation,
// checksum, and dimension failures reuse the gallery package's
// sentinels (gallery.ErrTruncated, gallery.ErrChecksum,
// gallery.ErrDimMismatch) so one errors.Is vocabulary covers both
// layers.
var (
	// ErrManifestMagic means the file does not start with the shard
	// manifest magic.
	ErrManifestMagic = errors.New("shard: bad magic (not a shard manifest)")
	// ErrManifestVersion means the manifest uses an unsupported format
	// version.
	ErrManifestVersion = errors.New("shard: unsupported manifest version")
	// ErrShardMissing means a shard file named by the manifest does not
	// exist.
	ErrShardMissing = errors.New("shard: shard file missing")
	// ErrShardCorrupt means a shard file disagrees with its manifest
	// entry (file CRC, size, record count, or dimensionality) or fails
	// to decode.
	ErrShardCorrupt = errors.New("shard: shard file corrupt")
	// ErrPartial means some shards failed to load while the rest remain
	// queryable; match the concrete *PartialError for per-shard detail.
	ErrPartial = errors.New("shard: some shards unavailable")
)

// Meta is one shard's manifest entry.
type Meta struct {
	// Name is the shard filename, relative to the manifest's directory.
	Name string
	// Records is the enrolled subject count the manifest expects.
	Records int
	// Features is the dimensionality the manifest recorded for this
	// shard file; it must match the store-wide feature count, and a
	// disagreement with the actual file is flagged as a dims mismatch.
	Features int
	// Bytes is the shard file size the manifest expects.
	Bytes int64
	// CRC is the CRC-32 (IEEE) of the entire shard file.
	CRC uint32
}

// Manifest is the decoded shard manifest: the store-wide geometry, the
// optional defense descriptor, and one Meta per shard.
type Manifest struct {
	// Features is the fingerprint dimensionality shared by every shard.
	Features int
	// FeatureIndex is the raw-space projection (nil = none), shared by
	// every shard.
	FeatureIndex []int
	// Defense is the anonymization pipeline the store's records were
	// built through, nil for an undefended store.
	Defense *defense.Descriptor
	// Shards lists every shard in routing order.
	Shards []Meta
}

// encode renders the manifest in the binary format above.
func (m *Manifest) encode() ([]byte, error) {
	if len(m.Shards) == 0 || len(m.Shards) > maxShards {
		return nil, fmt.Errorf("shard: implausible shard count %d", len(m.Shards))
	}
	buf := make([]byte, 0, 64+4*len(m.FeatureIndex))
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ManifestVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Shards)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Features))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.FeatureIndex)))
	var flags uint32
	var defBlob []byte
	if m.Defense != nil {
		var err error
		defBlob, err = defense.EncodeDescriptor(m.Defense)
		if err != nil {
			return nil, err
		}
		if len(defBlob) > maxDefenseBlob {
			return nil, fmt.Errorf("shard: defense descriptor blob is %d bytes (max %d)", len(defBlob), maxDefenseBlob)
		}
		flags |= flagDefended
	}
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	for _, idx := range m.FeatureIndex {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
	}
	if defBlob != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(defBlob)))
		buf = append(buf, defBlob...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	for i, sh := range m.Shards {
		if len(sh.Name) == 0 || len(sh.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("shard: entry %d has invalid name length %d", i, len(sh.Name))
		}
		entry := make([]byte, 0, 2+len(sh.Name)+24)
		entry = binary.LittleEndian.AppendUint16(entry, uint16(len(sh.Name)))
		entry = append(entry, sh.Name...)
		entry = binary.LittleEndian.AppendUint32(entry, uint32(sh.Records))
		entry = binary.LittleEndian.AppendUint32(entry, uint32(sh.Features))
		entry = binary.LittleEndian.AppendUint64(entry, uint64(sh.Bytes))
		entry = binary.LittleEndian.AppendUint32(entry, sh.CRC)
		entry = binary.LittleEndian.AppendUint32(entry, crc32.ChecksumIEEE(entry))
		buf = append(buf, entry...)
	}
	return buf, nil
}

// decodeManifest parses a manifest written by encode. It fails hard on
// any header or entry problem — a manifest is small and fully loaded;
// per-shard degradation happens when the shard files themselves are
// opened, not here.
func decodeManifest(r io.Reader) (*Manifest, error) {
	br := bufio.NewReader(r)
	fixed := make([]byte, len(manifestMagic)+20)
	if err := readFull(br, fixed, "manifest header"); err != nil {
		return nil, err
	}
	if string(fixed[:8]) != manifestMagic {
		return nil, ErrManifestMagic
	}
	version := binary.LittleEndian.Uint32(fixed[8:])
	if version != ManifestVersion {
		return nil, fmt.Errorf("%w %d (supported: %d)", ErrManifestVersion, version, ManifestVersion)
	}
	shards := binary.LittleEndian.Uint32(fixed[12:])
	features := binary.LittleEndian.Uint32(fixed[16:])
	indexLen := binary.LittleEndian.Uint32(fixed[20:])
	flags := binary.LittleEndian.Uint32(fixed[24:])
	if shards == 0 || shards > maxShards {
		return nil, fmt.Errorf("shard: implausible shard count %d in manifest", shards)
	}
	if features == 0 || features > 1<<26 {
		return nil, fmt.Errorf("%w: implausible feature count %d in manifest", gallery.ErrDimMismatch, features)
	}
	if indexLen != 0 && indexLen != features {
		return nil, fmt.Errorf("%w: feature index length %d != %d features", gallery.ErrDimMismatch, indexLen, features)
	}
	if flags&^uint32(flagDefended) != 0 {
		return nil, fmt.Errorf("shard: unknown manifest flags %#x", flags)
	}
	rest, err := readN(br, 4*int(indexLen), "manifest header body")
	if err != nil {
		return nil, err
	}
	var defLenBuf, defBlob []byte
	if flags&flagDefended != 0 {
		defLenBuf, err = readN(br, 4, "manifest defense descriptor length")
		if err != nil {
			return nil, err
		}
		defLen := binary.LittleEndian.Uint32(defLenBuf)
		if defLen == 0 || defLen > maxDefenseBlob {
			return nil, fmt.Errorf("shard: implausible defense descriptor length %d in manifest", defLen)
		}
		defBlob, err = readN(br, int(defLen), "manifest defense descriptor")
		if err != nil {
			return nil, err
		}
	}
	crcBuf, err := readN(br, 4, "manifest header checksum")
	if err != nil {
		return nil, err
	}
	stored := binary.LittleEndian.Uint32(crcBuf)
	crc := crc32.NewIEEE()
	crc.Write(fixed)
	crc.Write(rest)
	crc.Write(defLenBuf)
	crc.Write(defBlob)
	if crc.Sum32() != stored {
		return nil, fmt.Errorf("%w in manifest header", gallery.ErrChecksum)
	}

	m := &Manifest{Features: int(features)}
	if indexLen > 0 {
		m.FeatureIndex = make([]int, indexLen)
		for k := range m.FeatureIndex {
			m.FeatureIndex[k] = int(binary.LittleEndian.Uint32(rest[4*k:]))
		}
	}
	if flags&flagDefended != 0 {
		d, err := defense.DecodeDescriptor(defBlob)
		if err != nil {
			return nil, fmt.Errorf("shard: manifest defense descriptor: %w", err)
		}
		m.Defense = d
	}

	m.Shards = make([]Meta, 0, shards)
	lenBuf := make([]byte, 2)
	for i := 0; i < int(shards); i++ {
		if err := readFull(br, lenBuf, fmt.Sprintf("manifest entry %d", i)); err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint16(lenBuf))
		body := make([]byte, nameLen+24)
		if err := readFull(br, body, fmt.Sprintf("manifest entry %d", i)); err != nil {
			return nil, err
		}
		crc := crc32.NewIEEE()
		crc.Write(lenBuf)
		crc.Write(body[:len(body)-4])
		if crc.Sum32() != binary.LittleEndian.Uint32(body[len(body)-4:]) {
			return nil, fmt.Errorf("%w in manifest entry %d", gallery.ErrChecksum, i)
		}
		m.Shards = append(m.Shards, Meta{
			Name:     string(body[:nameLen]),
			Records:  int(binary.LittleEndian.Uint32(body[nameLen:])),
			Features: int(binary.LittleEndian.Uint32(body[nameLen+4:])),
			Bytes:    int64(binary.LittleEndian.Uint64(body[nameLen+8:])),
			CRC:      binary.LittleEndian.Uint32(body[nameLen+16:]),
		})
	}
	// A clean manifest ends exactly at the last entry.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("shard: trailing bytes after manifest entry %d", shards-1)
	}
	return m, nil
}

// readFull fills buf from r, mapping EOF and short reads to the typed
// truncation error with context.
func readFull(r io.Reader, buf []byte, what string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: in %s", gallery.ErrTruncated, what)
		}
		return fmt.Errorf("shard: reading %s: %w", what, err)
	}
	return nil
}

// readN is gallery.ReadN — the shared bounded-allocation reader, so a
// forged length field in a corrupt manifest cannot drive a huge
// up-front allocation.
func readN(r io.Reader, n int, what string) ([]byte, error) {
	return gallery.ReadN(r, n, what)
}

// writeManifestFile renders the manifest to path, replacing any
// existing file.
func (m *Manifest) writeManifestFile(path string) error {
	buf, err := m.encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// readManifestFile loads the manifest stored at path.
func readManifestFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := decodeManifest(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
