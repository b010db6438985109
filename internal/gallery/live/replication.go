package live

// The engine's replication surface. A primary ships its history to
// read replicas as the raw CRC-framed write-ahead-log records it
// already commits locally (wal.go) — no second codec, no translation —
// addressed by a monotonic mutation sequence number:
//
//	seq(record) = baseSeq(generation) + position in the generation's log
//
// baseSeq is persisted per generation in a tiny sidecar file
// ("live.gNNNN.seq", text: "<baseSeq>") written before the generation
// becomes CURRENT. A compaction folds the first c records of the old
// log into the new base and carries the rest over byte for byte, so the
// switch sets baseSeq' = baseSeq + c and nothing else moves: sequence
// numbers keep counting across generations, and every position past
// baseSeq' of the new log is the frame the old log held at that
// position. Any position in [baseSeq, seq] is therefore resumable,
// whichever generation the follower last tailed; anything earlier is
// folded into the base and must re-bootstrap from a snapshot
// (ErrSeqOutOfRange tells it so).

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"brainprint/internal/gallery"
)

// ErrSeqOutOfRange means a replication read asked for a sequence
// position the current generation's log does not retain — the follower
// is too far behind (or ahead) to resume streaming and must
// re-bootstrap from a fresh snapshot.
var ErrSeqOutOfRange = errors.New("live: requested sequence is outside the retained write-ahead log window")

// ReplicationState is a point-in-time snapshot of the engine's
// replication coordinates, the contract a follower bootstraps and
// resumes against.
type ReplicationState struct {
	// Generation is the current on-disk generation number.
	Generation int
	// BaseSeq is the earliest position a follower may resume from: the
	// sequence the compaction that wrote this generation cut its
	// snapshot at, which is where the generation's log starts.
	BaseSeq int64
	// Seq is the sequence number of the last committed mutation.
	Seq int64
	// WALName is the generation's log segment file name.
	WALName string
	// WALBytes is the committed length of the log segment, header
	// included — the byte range a bootstrap must copy.
	WALBytes int64
	// Features is the fingerprint dimensionality, which bounds the
	// size of any legal replicated frame.
	Features int
}

// ReplicationState reports the engine's current replication
// coordinates.
func (e *Engine) ReplicationState() ReplicationState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return ReplicationState{
		Generation: e.gen,
		BaseSeq:    e.baseSeq,
		Seq:        e.baseSeq + int64(e.walRecords),
		WALName:    genName(e.gen, "bpw"),
		WALBytes:   e.walBytes,
		Features:   e.features,
	}
}

// bump wakes every WaitWAL waiter by closing and replacing the
// broadcast channel. Called with the write lock held.
func (e *Engine) bump() {
	close(e.walCh)
	e.walCh = make(chan struct{})
}

// GenerationFile names one immutable file of the current generation a
// follower copies during bootstrap.
type GenerationFile struct {
	// Name is the file's name within the live directory.
	Name string
	// Size is the file's length in bytes.
	Size int64
}

// GenerationFiles lists the current generation's immutable files — the
// base manifest, shard files, ANN sidecar when present, and sequence
// sidecar — excluding the write-ahead log, whose committed prefix is
// reported by ReplicationState and served by OpenGenerationFile.
func (e *Engine) GenerationFiles() ([]GenerationFile, error) {
	e.mu.RLock()
	gen := e.gen
	e.mu.RUnlock()
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return nil, err
	}
	prefix := fmt.Sprintf("live.g%04d.", gen)
	walName := genName(gen, "bpw")
	var out []GenerationFile
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, prefix) || name == walName {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, GenerationFile{Name: name, Size: info.Size()})
	}
	return out, nil
}

// OpenGenerationFile opens one of the current generation's files by
// name for a bootstrap copy, returning the reader and the byte length
// to copy. Names outside the current generation's prefix (or with path
// separators) are refused; the write-ahead log is limited to its
// committed prefix so a torn or in-flight tail never ships.
func (e *Engine) OpenGenerationFile(name string) (io.ReadCloser, int64, error) {
	e.mu.RLock()
	gen := e.gen
	committed := e.walBytes
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, 0, ErrClosed
	}
	prefix := fmt.Sprintf("live.g%04d.", gen)
	if name != filepath.Base(name) || !strings.HasPrefix(name, prefix) {
		return nil, 0, fmt.Errorf("live: %q is not a file of generation %d", name, gen)
	}
	f, err := os.Open(filepath.Join(e.dir, name))
	if err != nil {
		return nil, 0, err
	}
	size := committed
	if name != genName(gen, "bpw") {
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, 0, err
		}
		size = info.Size()
		return f, size, nil
	}
	return struct {
		io.Reader
		io.Closer
	}{io.LimitReader(f, size), f}, size, nil
}

// WALRange reads a batch of committed frames from the generation gen
// log, starting after sequence afterSeq, bounded to roughly maxBytes
// (at least one frame). It returns the verbatim frame bytes and the
// sequence of the last frame included. An empty batch with upTo ==
// afterSeq means the follower is caught up. ErrSeqOutOfRange means gen
// is no longer current or afterSeq is outside [BaseSeq, Seq] — the
// follower must re-negotiate (resume on the current generation or
// re-bootstrap). The read goes through the engine's open segment handle
// under the read lock, so a generation switch can neither unlink the
// file under it nor interleave with it.
func (e *Engine) WALRange(gen int, afterSeq int64, maxBytes int) ([]byte, int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, 0, ErrClosed
	}
	if gen != e.gen {
		return nil, 0, fmt.Errorf("%w: generation %d superseded by %d", ErrSeqOutOfRange, gen, e.gen)
	}
	seq := e.baseSeq + int64(e.walRecords)
	if afterSeq < e.baseSeq || afterSeq > seq {
		return nil, 0, fmt.Errorf("%w: after=%d, window [%d, %d]", ErrSeqOutOfRange, afterSeq, e.baseSeq, seq)
	}
	idx := int(afterSeq - e.baseSeq)
	if idx == len(e.walOff) {
		return nil, afterSeq, nil
	}
	startOff := e.walStart
	if idx > 0 {
		startOff = e.walOff[idx-1]
	}
	end := idx
	for end < len(e.walOff) {
		if end > idx && e.walOff[end]-startOff > int64(maxBytes) {
			break
		}
		end++
	}
	buf := make([]byte, e.walOff[end-1]-startOff)
	if _, err := e.wal.f.ReadAt(buf, startOff); err != nil {
		return nil, 0, fmt.Errorf("live: reading write-ahead log range: %w", err)
	}
	return buf, e.baseSeq + int64(end), nil
}

// WaitWAL blocks until the engine commits a mutation past afterSeq,
// switches away from generation gen, or closes (ErrClosed); ctx
// cancellation returns ctx.Err(). A nil return means the follower
// should retry WALRange, which will either yield frames or report the
// generation switch.
func (e *Engine) WaitWAL(ctx context.Context, gen int, afterSeq int64) error {
	for {
		e.mu.RLock()
		if e.closed {
			e.mu.RUnlock()
			return ErrClosed
		}
		if e.gen != gen || e.baseSeq+int64(e.walRecords) > afterSeq {
			e.mu.RUnlock()
			return nil
		}
		ch := e.walCh
		e.mu.RUnlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// ApplyReplicated verifies and commits one replicated frame — the
// verbatim bytes a primary's WALRange produced — through the same
// fsync-before-visibility path as a local mutation, so a follower's
// log is byte-identical to the primary's history and its query results
// are bit-identical at the same sequence number. Framing or checksum
// damage fails with ErrWALCorrupt; a duplicate enroll or unknown
// delete fails with the gallery sentinels, the signature of a follower
// whose history has diverged.
func (e *Engine) ApplyReplicated(frame []byte) error {
	if len(frame) < 8 {
		return fmt.Errorf("%w: replicated frame of %d bytes", ErrWALCorrupt, len(frame))
	}
	payloadLen := int64(binary.LittleEndian.Uint32(frame))
	if payloadLen+8 != int64(len(frame)) {
		return fmt.Errorf("%w: replicated frame claims %d payload bytes in a %d-byte frame", ErrWALCorrupt, payloadLen, len(frame))
	}
	payload := frame[4 : 4+payloadLen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4+payloadLen:]) {
		return fmt.Errorf("%w: replicated frame failed checksum", ErrWALCorrupt)
	}
	rec, err := decodeWALPayload(payload, walHeader{features: e.features, featureIndex: e.fidx})
	if err != nil {
		return fmt.Errorf("%w: replicated frame: %v", ErrWALCorrupt, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	switch rec.kind {
	case walKindEnroll:
		if _, dup := e.byID[rec.id]; dup {
			return fmt.Errorf("%w: %q", gallery.ErrDuplicateID, rec.id)
		}
		if err := e.commit(frame); err != nil {
			return err
		}
		if err := e.applyEnroll(rec.id, rec.vec); err != nil {
			return err
		}
	default:
		if _, ok := e.byID[rec.id]; !ok {
			return fmt.Errorf("%w: %q", gallery.ErrUnknownID, rec.id)
		}
		if err := e.commit(frame); err != nil {
			return err
		}
		if err := e.applyDelete(rec.id); err != nil {
			return err
		}
	}
	e.maybeKickCompaction()
	return nil
}

// WriteCurrentFile atomically points a live directory at a generation
// — exported for replica bootstrap, which assembles a directory from
// copied generation files and must flip it live only once every file
// is durable.
func WriteCurrentFile(dir string, gen int) error {
	return writeCurrent(dir, gen)
}

// seqName renders a generation's sequence-sidecar file name.
func seqName(gen int) string { return genName(gen, "seq") }

// writeSeqFile persists a generation's sequence origin ("<baseSeq>",
// text) and syncs it, before the generation becomes CURRENT.
func writeSeqFile(dir string, gen int, baseSeq int64) error {
	path := filepath.Join(dir, seqName(gen))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%d\n", baseSeq); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSeqFile parses a generation's sequence origin: exactly one
// non-negative decimal integer and a newline, as writeSeqFile leaves it.
// A missing or malformed sidecar is an error — opening at origin 0
// would number the log from the wrong position and serve followers the
// wrong frames.
func readSeqFile(dir string, gen int) (int64, error) {
	path := filepath.Join(dir, seqName(gen))
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("live: generation %d sequence sidecar: %w", gen, err)
	}
	digits, ok := strings.CutSuffix(string(b), "\n")
	baseSeq, err := strconv.ParseInt(digits, 10, 64)
	if !ok || err != nil || baseSeq < 0 {
		return 0, fmt.Errorf("live: %s: malformed sequence sidecar %q (want one non-negative integer)", path, b)
	}
	return baseSeq, nil
}
