package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
)

// The write-ahead log file format, version 1. All integers are
// little-endian, all checksums CRC-32 (IEEE). One WAL segment belongs
// to one generation of the live directory: it records every mutation
// committed since that generation's base store was written, and replays
// on Open to rebuild the in-memory overlay.
//
//	header:
//	  magic        [8]byte  "BPWAL\x00\x00\x00"
//	  version      uint32   1
//	  features     uint32   fingerprint dimensionality (> 0)
//	  indexLen     uint32   feature-index length (0 = none, else == features)
//	  featureIndex [indexLen]uint32
//	  headerCRC    uint32   over every preceding header byte
//	record (repeated until EOF):
//	  payloadLen   uint32   length of the payload below
//	  payload:
//	    kind       uint8    1 = enroll, 2 = delete
//	    idLen      uint16
//	    id         [idLen]byte
//	    vec        [features]float64   z-scored; enroll records only
//	  payloadCRC   uint32   over the payload bytes
//
// Records are length-prefixed and individually checksummed, so the
// reader can always tell a torn tail (the file ends before the framed
// record does — the signature of a crash mid-append) from interior
// corruption (a record fails its CRC but bytes follow it). Torn tails
// are recovered by truncating to the last committed record and
// continuing; interior corruption is a hard typed error, because
// silently resynchronizing past it could resurrect deleted subjects.
const (
	walMagic = "BPWAL\x00\x00\x00"

	// WALVersion is the write-ahead log format version this package
	// reads and writes.
	WALVersion = 1

	walKindEnroll = 1
	walKindDelete = 2
)

// Typed write-ahead-log and live-directory errors, matched with
// errors.Is. Truncation and checksum failures reuse the gallery
// package's sentinels where the meaning coincides.
var (
	// ErrWALMagic means the file does not start with the WAL magic.
	ErrWALMagic = errors.New("live: bad magic (not a write-ahead log)")
	// ErrWALVersion means the log uses an unsupported format version.
	ErrWALVersion = errors.New("live: unsupported write-ahead log version")
	// ErrWALCorrupt means a log record in the interior of the file
	// failed validation (checksum, framing, or replay consistency) —
	// unlike a torn tail, this is not recoverable by truncation.
	ErrWALCorrupt = errors.New("live: write-ahead log corrupt")
	// ErrWALMissing means the generation's log segment named by CURRENT
	// does not exist.
	ErrWALMissing = errors.New("live: write-ahead log missing")
	// ErrNotLive means the directory is not a live gallery (no CURRENT
	// file).
	ErrNotLive = errors.New("live: not a live gallery directory (no CURRENT file)")
	// ErrClosed means the engine has been closed.
	ErrClosed = errors.New("live: engine is closed")
)

// walRecord is one decoded mutation.
type walRecord struct {
	kind byte
	id   string
	vec  []float64 // z-scored, gallery-space; enroll records only
}

// walHeader carries the geometry a WAL segment was written under.
type walHeader struct {
	features     int
	featureIndex []int
}

// encodeWALHeader renders the checksummed segment header.
func encodeWALHeader(h walHeader) []byte {
	buf := make([]byte, 0, len(walMagic)+12+4*len(h.featureIndex)+4)
	buf = append(buf, walMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, WALVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.features))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.featureIndex)))
	for _, idx := range h.featureIndex {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeWALHeader parses and verifies the segment header. Header
// problems are always hard errors: a segment whose header cannot be
// trusted has no replayable records at all.
func decodeWALHeader(br *bufio.Reader) (walHeader, int64, error) {
	var h walHeader
	fixed := make([]byte, len(walMagic)+12)
	if err := readFull(br, fixed, "write-ahead log header"); err != nil {
		return h, 0, err
	}
	if string(fixed[:8]) != walMagic {
		return h, 0, ErrWALMagic
	}
	version := binary.LittleEndian.Uint32(fixed[8:])
	if version != WALVersion {
		return h, 0, fmt.Errorf("%w %d (supported: %d)", ErrWALVersion, version, WALVersion)
	}
	features := binary.LittleEndian.Uint32(fixed[12:])
	indexLen := binary.LittleEndian.Uint32(fixed[16:])
	if features == 0 || features > 1<<26 {
		return h, 0, fmt.Errorf("%w: implausible feature count %d in write-ahead log header", gallery.ErrDimMismatch, features)
	}
	if indexLen != 0 && indexLen != features {
		return h, 0, fmt.Errorf("%w: feature index length %d != %d features", gallery.ErrDimMismatch, indexLen, features)
	}
	rest, err := readN(br, int(4*indexLen+4), "write-ahead log header feature index")
	if err != nil {
		return h, 0, err
	}
	stored := binary.LittleEndian.Uint32(rest[4*indexLen:])
	crc := crc32.NewIEEE()
	crc.Write(fixed)
	crc.Write(rest[:4*indexLen])
	if crc.Sum32() != stored {
		return h, 0, fmt.Errorf("%w in write-ahead log header", gallery.ErrChecksum)
	}
	h.features = int(features)
	if indexLen > 0 {
		h.featureIndex = make([]int, indexLen)
		for k := range h.featureIndex {
			h.featureIndex[k] = int(binary.LittleEndian.Uint32(rest[4*k:]))
		}
	}
	return h, int64(len(fixed) + len(rest)), nil
}

// encodeWALRecord frames one mutation: length prefix, payload, CRC.
// Enroll records carry the already-normalized vector so replay restores
// the exact stored bits without renormalization.
func encodeWALRecord(kind byte, id string, vec []float64) []byte {
	payload := make([]byte, 0, 3+len(id)+8*len(vec))
	payload = append(payload, kind)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(id)))
	payload = append(payload, id...)
	payload = linalg.AppendFloat64s(payload, vec)
	buf := make([]byte, 0, 8+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// replayTail is the outcome of replaying a segment's record section.
type replayTail struct {
	// hdrEnd is the offset just past the segment header — where the
	// record section starts.
	hdrEnd int64
	// goodEnd is the offset just past the last committed record.
	goodEnd int64
	// tornBytes is how many trailing bytes after goodEnd belong to a
	// torn (incomplete or tail-corrupt) record; 0 for a clean segment.
	tornBytes int64
	// records is how many committed records were replayed.
	records int
	// ends[i] is the offset just past committed record i — the frame
	// boundaries replication streams committed byte ranges by.
	ends []int64
}

// replayWAL decodes the record section after the header, calling apply
// for every committed record. size is the total segment length; knowing
// it lets the reader classify a record that runs past the end of the
// file as a torn tail without allocating the claimed length, and
// distinguish tail corruption (recoverable) from interior corruption
// (hard ErrWALCorrupt).
func replayWAL(br *bufio.Reader, h walHeader, start, size int64, apply func(walRecord) error) (replayTail, error) {
	tail := replayTail{hdrEnd: start, goodEnd: start}
	lenBuf := make([]byte, 4)
	for {
		remaining := size - tail.goodEnd
		if remaining == 0 {
			return tail, nil // clean end at a record boundary
		}
		if remaining < 4 {
			tail.tornBytes = remaining
			return tail, nil // torn: not even a whole length prefix
		}
		if err := readFull(br, lenBuf, "write-ahead log record length"); err != nil {
			return tail, err
		}
		payloadLen := int64(binary.LittleEndian.Uint32(lenBuf))
		if 4+payloadLen+4 > remaining {
			// The framed record runs past the end of the file — the
			// signature of a crash mid-append. Everything from here is
			// the torn tail.
			tail.tornBytes = remaining
			return tail, nil
		}
		body, err := readN(br, int(payloadLen)+4, "write-ahead log record")
		if err != nil {
			return tail, err
		}
		payload := body[:payloadLen]
		atEOF := 4+payloadLen+4 == remaining
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[payloadLen:]) {
			if atEOF {
				// A corrupt final record: a partially persisted append
				// (e.g. a page lost inside the last fsync window).
				// Recoverable exactly like an incomplete one.
				tail.tornBytes = remaining
				return tail, nil
			}
			return tail, fmt.Errorf("%w: record %d failed checksum with %d committed bytes after it",
				ErrWALCorrupt, tail.records, remaining-(4+payloadLen+4))
		}
		rec, err := decodeWALPayload(payload, h)
		if err != nil {
			// CRC-valid but malformed payload: writer-side corruption,
			// never recoverable by truncation.
			return tail, fmt.Errorf("%w: record %d: %v", ErrWALCorrupt, tail.records, err)
		}
		if err := apply(rec); err != nil {
			return tail, fmt.Errorf("%w: replaying record %d: %v", ErrWALCorrupt, tail.records, err)
		}
		tail.goodEnd += 4 + payloadLen + 4
		tail.records++
		tail.ends = append(tail.ends, tail.goodEnd)
	}
}

// decodeWALPayload parses one CRC-verified payload against the segment
// geometry.
func decodeWALPayload(payload []byte, h walHeader) (walRecord, error) {
	var rec walRecord
	if len(payload) < 3 {
		return rec, fmt.Errorf("payload of %d bytes is shorter than the fixed fields", len(payload))
	}
	rec.kind = payload[0]
	idLen := int(binary.LittleEndian.Uint16(payload[1:]))
	switch rec.kind {
	case walKindEnroll:
		if len(payload) != 3+idLen+8*h.features {
			return rec, fmt.Errorf("enroll payload is %d bytes, want %d", len(payload), 3+idLen+8*h.features)
		}
		rec.id = string(payload[3 : 3+idLen])
		rec.vec = make([]float64, h.features)
		if _, err := linalg.DecodeFloat64s(payload[3+idLen:], rec.vec); err != nil {
			return rec, err
		}
	case walKindDelete:
		if len(payload) != 3+idLen {
			return rec, fmt.Errorf("delete payload is %d bytes, want %d", len(payload), 3+idLen)
		}
		rec.id = string(payload[3:])
	default:
		return rec, fmt.Errorf("unknown record kind %d", rec.kind)
	}
	if rec.id == "" || idLen > gallery.MaxIDLen {
		return rec, fmt.Errorf("invalid subject id length %d", idLen)
	}
	return rec, nil
}

// walWriter appends committed records to an open segment. It tracks
// the committed end offset so a failed append can be rolled back: a
// partial frame left in place would make the NEXT successful append
// land after garbage, turning a recoverable torn tail into
// unrecoverable interior corruption at replay. If the rollback itself
// fails, the writer is poisoned and refuses further commits.
type walWriter struct {
	f      *os.File
	sync   bool
	off    int64 // end of the last durable record (or the header)
	broken error // non-nil once a failed append could not be rolled back
}

// createWAL writes a fresh segment at path — the header, then tail,
// the committed frames a compaction swap carries over verbatim (nil for
// an empty log) — and returns an appender positioned at its end plus
// the header length. The segment is synced before the function returns,
// so a generation switch never points at a headerless or short one.
func createWAL(path string, h walHeader, tail []byte, syncOnCommit bool) (*walWriter, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	hdr := encodeWALHeader(h)
	if _, err := f.Write(append(hdr, tail...)); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, 0, err
	}
	return &walWriter{f: f, sync: syncOnCommit, off: int64(len(hdr) + len(tail))}, int64(len(hdr)), nil
}

// openWAL opens an existing segment for replay and appending: the
// header is verified against the expected geometry, every committed
// record is applied, and a torn tail is truncated away so the appender
// resumes exactly at the last committed record.
func openWAL(path string, want walHeader, syncOnCommit bool, apply func(walRecord) error) (*walWriter, replayTail, error) {
	var tail replayTail
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, tail, fmt.Errorf("%w: %s", ErrWALMissing, path)
		}
		return nil, tail, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, tail, err
	}
	br := bufio.NewReader(f)
	h, hdrLen, err := decodeWALHeader(br)
	if err != nil {
		f.Close()
		return nil, tail, fmt.Errorf("%s: %w", path, err)
	}
	if h.features != want.features || !equalIndex(h.featureIndex, want.featureIndex) {
		f.Close()
		return nil, tail, fmt.Errorf("%w: write-ahead log geometry (%d features) disagrees with the base store (%d)",
			gallery.ErrDimMismatch, h.features, want.features)
	}
	tail, err = replayWAL(br, h, hdrLen, st.Size(), apply)
	if err != nil {
		f.Close()
		return nil, tail, fmt.Errorf("%s: %w", path, err)
	}
	if tail.tornBytes > 0 {
		if err := f.Truncate(tail.goodEnd); err != nil {
			f.Close()
			return nil, tail, fmt.Errorf("live: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, tail, err
		}
	}
	if _, err := f.Seek(tail.goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, tail, err
	}
	return &walWriter{f: f, sync: syncOnCommit, off: tail.goodEnd}, tail, nil
}

// append commits one framed record: the bytes are written and, unless
// the engine was opened with NoSync, fsynced before the mutation
// becomes visible to queries. On a write failure the partial frame is
// truncated away so the segment still ends at a committed record; if
// even that fails, the writer poisons itself and every later commit is
// refused — appending after an unrolled partial frame would corrupt
// the segment's interior, which replay treats as unrecoverable.
func (w *walWriter) append(frame []byte) error {
	if w.broken != nil {
		return fmt.Errorf("live: write-ahead log writer is failed: %w", w.broken)
	}
	if _, err := w.f.Write(frame); err != nil {
		if terr := w.f.Truncate(w.off); terr != nil {
			w.broken = fmt.Errorf("append failed (%v) and rollback failed: %w", err, terr)
		} else if _, serr := w.f.Seek(w.off, io.SeekStart); serr != nil {
			w.broken = fmt.Errorf("append failed (%v) and reseek failed: %w", err, serr)
		}
		return err
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			// After a failed fsync the kernel may have dropped the
			// dirty pages: whether the frame survives a crash is
			// unknowable from here (the fsyncgate problem). The engine
			// will not apply the mutation, but the frame may still
			// replay after a restart — so refuse all further commits
			// rather than let disk and memory diverge.
			w.broken = fmt.Errorf("fsync failed, segment state unknown: %w", err)
			return err
		}
	}
	w.off += int64(len(frame))
	return nil
}

// close releases the segment file handle.
func (w *walWriter) close() error { return w.f.Close() }

// equalIndex reports whether two feature indices are identical.
func equalIndex(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readFull fills buf from r, mapping EOF and short reads to the typed
// truncation error with context.
func readFull(r io.Reader, buf []byte, what string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: in %s", gallery.ErrTruncated, what)
		}
		return fmt.Errorf("live: reading %s: %w", what, err)
	}
	return nil
}

// readN is gallery.ReadN — the shared bounded-allocation reader, so a
// forged length prefix cannot drive a huge up-front allocation.
func readN(r io.Reader, n int, what string) ([]byte, error) {
	return gallery.ReadN(r, n, what)
}
