package brainprint

// The replication facade: WAL-shipping read replicas of a live gallery
// served over HTTP. A primary (`brainprint serve` on a live directory)
// exposes GET /v1/replicate/* — a snapshot of its current generation
// plus a long-poll stream of the verbatim CRC-framed write-ahead-log
// records it commits — and a Replica tails that surface into a local
// live directory, applying each frame through the same
// fsync-before-visibility path the primary used. At equal sequence
// numbers, replica query results are bit-identical to the primary's.
// See internal/replicate and docs/REPLICATION.md for the wire contract
// and failure matrix.

import "brainprint/internal/replicate"

// Replica is a read-only follower of a remote primary: a local live
// gallery kept in sync by tailing the primary's write-ahead-log
// stream. It implements GalleryEngine (plus the IVF knob), so it drops
// into NewAttacker and the HTTP service like any local store; it
// carries no write surface, and a server fronting it answers 405 to
// mutations.
type Replica = replicate.Replica

// ReplicaOptions tunes a replica's tail loop: HTTP client, reconnect
// backoff bounds, the long-poll window, and the local auto-compaction
// threshold.
type ReplicaOptions = replicate.Options

// ReplicaStats is a replica's replication-lag snapshot: local and
// primary head sequence numbers, their difference, the wall-clock
// staleness bound, and bootstrap/reconnect counters, as reported by
// /healthz and /v1/metrics on a replica server.
type ReplicaStats = replicate.Stats

// Typed replication errors, matched with errors.Is.
var (
	// ErrReplicaFrameCorrupt: a streamed log frame failed framing or
	// checksum validation.
	ErrReplicaFrameCorrupt = replicate.ErrFrameCorrupt
	// ErrReplicaHistoryGone: the primary no longer retains the history
	// this replica needs to resume; the replica re-bootstraps from a
	// fresh snapshot automatically.
	ErrReplicaHistoryGone = replicate.ErrHistoryGone
	// ErrReplicaBadState: the primary's replication-state document is
	// malformed or incompatible with this build.
	ErrReplicaBadState = replicate.ErrBadState
)

// StartReplica opens (or bootstraps) a read replica of the primary
// serving at the given base URL into the local directory and begins
// tailing its write-ahead log in the background. A directory already
// holding replica state reopens and resumes from its own head — torn
// log tails from a crash truncate away exactly as on a primary. Close
// the replica to stop the tail and release the engine.
func StartReplica(primaryURL, dir string, opts ReplicaOptions) (*Replica, error) {
	return replicate.Start(primaryURL, dir, opts)
}
