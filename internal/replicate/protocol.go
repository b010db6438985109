// Package replicate is the primary→replica replication tier over the
// live gallery's write-ahead log. A primary serves three HTTP
// endpoints (mounted by internal/serve when the gallery is live):
//
//	GET /v1/replicate/state          JSON State: generation, sequence
//	                                 window, file inventory
//	GET /v1/replicate/file?name=N    one generation file, verbatim (the
//	                                 log truncated to committed bytes)
//	GET /v1/replicate/wal?gen=G&after=S
//	                                 long-poll stream of raw CRC-framed
//	                                 log records after sequence S
//
// A Replica bootstraps by copying the primary's current generation
// byte-for-byte into a local live directory, opens it with the same
// engine the primary runs, and then tails the stream, applying each
// frame through the engine's fsync-before-visibility commit path — so
// replica query results are bit-identical to the primary's at the same
// sequence number, and a replica restart recovers exactly like a
// primary restart (torn tails truncate, interior corruption refuses).
//
// The stream carries the verbatim frame bytes the primary committed —
// the wal.go record codec reused unchanged, no second serialization.
// Catch-up across a compaction is sequence-gated: the new generation's
// log is the old log's verbatim tail past the sequence the snapshot was
// cut at (State.BaseSeq), so a follower at or past that position rides
// through the generation switch; anything earlier is folded into the
// base, answers 410, and the replica re-bootstraps from the newest
// generation. See
// docs/REPLICATION.md for the wire contract and failure matrix.
package replicate

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"brainprint/internal/gallery"
)

// Wire paths and header names of the replication surface.
const (
	// PathState is the replication-state endpoint.
	PathState = "/v1/replicate/state"
	// PathFile is the generation-file bootstrap endpoint.
	PathFile = "/v1/replicate/file"
	// PathWAL is the long-poll frame-stream endpoint.
	PathWAL = "/v1/replicate/wal"

	// HeaderGeneration carries the primary's current generation number
	// on a stream response.
	HeaderGeneration = "X-Replicate-Generation"
	// HeaderSeq carries the primary's head sequence number at the time
	// the stream opened — the replica's staleness reference.
	HeaderSeq = "X-Replicate-Seq"
)

// Typed replication errors, matched with errors.Is.
var (
	// ErrFrameCorrupt means a streamed frame failed framing or checksum
	// validation — the bytes on the wire are not a committed record.
	ErrFrameCorrupt = errors.New("replicate: stream frame corrupt")
	// ErrHistoryGone means the primary no longer retains the history
	// the replica needs to resume (HTTP 409/410, or a frame that does
	// not apply): the replica must re-bootstrap from a snapshot.
	ErrHistoryGone = errors.New("replicate: primary no longer retains the needed history")
	// ErrBadState means the primary's state document is malformed or
	// incompatible with this replica.
	ErrBadState = errors.New("replicate: bad primary state")
)

// State is the JSON body of GET /v1/replicate/state: everything a
// replica needs to bootstrap from the primary's current generation and
// decide whether its own position can resume streaming.
type State struct {
	// Generation is the primary's current generation number.
	Generation int `json:"generation"`
	// BaseSeq is the sequence the generation's log starts after — the
	// earliest position a follower may resume streaming from.
	BaseSeq int64 `json:"base_seq"`
	// Seq is the primary's head sequence number.
	Seq int64 `json:"seq"`
	// WALVersion is the log format version the frames use.
	WALVersion int `json:"wal_version"`
	// Features is the fingerprint dimensionality — it bounds the size
	// of any legal frame on the stream.
	Features int `json:"features"`
	// WAL is the generation's log segment file name.
	WAL string `json:"wal"`
	// WALBytes is the committed log prefix a bootstrap must copy.
	WALBytes int64 `json:"wal_bytes"`
	// Files lists the generation's immutable files (manifest, shards,
	// ANN and sequence sidecars) to copy verbatim.
	Files []FileInfo `json:"files"`
}

// FileInfo is one bootstrap file in a State document.
type FileInfo struct {
	// Name is the file's name within the live directory.
	Name string `json:"name"`
	// Size is the file's length in bytes.
	Size int64 `json:"size"`
}

// MaxPayload returns the largest legal frame payload for a gallery of
// the given dimensionality: kind + idLen + id + one float64 per
// feature.
func MaxPayload(features int) int {
	return 3 + gallery.MaxIDLen + 8*features
}

// ReadFrame reads one CRC-framed record from the stream and returns
// its verbatim bytes (length prefix, payload, and trailing checksum —
// exactly what Engine.ApplyReplicated consumes). io.EOF at a frame
// boundary means a clean end of stream; a frame cut short mid-way is
// io.ErrUnexpectedEOF; an implausible length or a checksum mismatch is
// ErrFrameCorrupt. The decoder either returns bytes that re-encode to
// the input or rejects — it never resynchronizes past damage.
func ReadFrame(br *bufio.Reader, maxPayload int) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	payloadLen := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if payloadLen < 3 || payloadLen > int64(maxPayload) {
		return nil, fmt.Errorf("%w: payload of %d bytes (max %d)", ErrFrameCorrupt, payloadLen, maxPayload)
	}
	body, err := gallery.ReadN(br, int(payloadLen)+4, "replication stream frame")
	if err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	payload := body[:payloadLen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[payloadLen:]) {
		return nil, fmt.Errorf("%w: frame failed checksum", ErrFrameCorrupt)
	}
	frame := make([]byte, 0, 4+len(body))
	frame = append(frame, lenBuf[:]...)
	frame = append(frame, body...)
	return frame, nil
}
