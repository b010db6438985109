package brainprint

// The context-aware session API: a stateful Attacker owns the enrolled
// fingerprint gallery and the query knobs, and serves probes, batches
// and streams under a context.Context. The paper's experiments and the
// stateless attacks are free functions in brainprint.go.

import (
	"time"

	"brainprint/internal/attacker"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/ivf"
	"brainprint/internal/gallery/shard"
)

// Attacker is a long-lived identification session: it owns an enrolled
// fingerprint gallery plus the query knobs and serves Identify,
// IdentifyBatch and IdentifyStream under a context. Construct with
// NewAttacker; safe for concurrent use.
type Attacker = attacker.Attacker

// AttackerOption configures NewAttacker; options apply in order, later
// options win.
type AttackerOption = attacker.Option

// Probe is one streamed identification request (an opaque ID plus the
// fingerprint vector).
type Probe = attacker.Probe

// StreamResult is one streamed identification outcome.
type StreamResult = attacker.StreamResult

// BatchResult is the outcome of Attacker.IdentifyBatch: per-probe
// ranked candidates, plus the optimal one-to-one assignment when the
// session was built WithAssignment(true).
type BatchResult = attacker.BatchResult

// ErrNoGallery is returned by NewAttacker when neither its engine
// argument nor an option supplies a gallery engine.
var ErrNoGallery = attacker.ErrNoGallery

// NewAttacker builds an identification session over an enrolled
// gallery engine — a *GalleryStore (NewGalleryStore(g, 1) serves an
// in-memory *Gallery, OpenGalleryStore a gallery file), a *LiveGallery
// or a *Replica. g may be nil only when WithMutableGallery supplies the
// engine; otherwise NewAttacker returns ErrNoGallery.
func NewAttacker(g GalleryEngine, opts ...AttackerOption) (*Attacker, error) {
	return attacker.New(g, opts...)
}

// WithParallelism bounds the session's worker count (0 = all cores,
// 1 = serial). Results are identical at any setting.
func WithParallelism(n int) AttackerOption { return attacker.WithParallelism(n) }

// WithTopK sets how many ranked candidates each identification returns
// (default 1).
func WithTopK(k int) AttackerOption { return attacker.WithTopK(k) }

// WithAssignment enables the Hungarian one-to-one assignment on batch
// identifications.
func WithAssignment(on bool) AttackerOption { return attacker.WithAssignment(on) }

// WithMutableGallery enrolls a live, writable gallery (OpenLiveGallery)
// as the session's engine and exposes its write surface through
// (*Attacker).Mutable, enabling the HTTP service's online enrollment
// endpoints. Identification answers reflect every mutation committed
// before the sweep began.
func WithMutableGallery(m GalleryMutable) AttackerOption { return attacker.WithMutableGallery(m) }

// WithTimeout sets a default per-call deadline for every session
// method (0 = none).
func WithTimeout(d time.Duration) AttackerOption { return attacker.WithTimeout(d) }

// WithANN selects the engine's IVF cell fan-out: queries scan only the
// nprobe index cells nearest each probe instead of every record —
// sub-linear candidate selection at population scale. 0 (the default)
// keeps the exact sweep. The knob trades recall for speed, never score
// fidelity: every returned score stays the exact float64 expression,
// bit-identical to the dense path, and nprobe at or above the index's
// cell count is bit-identical to the exact scan outright. A positive
// nprobe requires an engine whose database carries an index sidecar
// (built by `brainprint gallery index`). See DESIGN.md §9.
func WithANN(nprobe int) AttackerOption { return attacker.WithANN(nprobe) }

// ---- Typed gallery errors ----
//
// Re-exported so callers can errors.Is against facade symbols without
// importing internal/gallery.
var (
	// ErrGalleryBadMagic: the file is not a gallery file.
	ErrGalleryBadMagic = gallery.ErrBadMagic
	// ErrGalleryVersion: unsupported gallery format version.
	ErrGalleryVersion = gallery.ErrVersion
	// ErrGalleryTruncated: the file ends mid-header or mid-record.
	ErrGalleryTruncated = gallery.ErrTruncated
	// ErrGalleryChecksum: a header or record failed CRC verification.
	ErrGalleryChecksum = gallery.ErrChecksum
	// ErrGalleryDimMismatch: fingerprint dimensions disagree with the
	// gallery on enrollment, query, or in a corrupt header.
	ErrGalleryDimMismatch = gallery.ErrDimMismatch
	// ErrGalleryDuplicateID: a subject ID is already enrolled.
	ErrGalleryDuplicateID = gallery.ErrDuplicateID
)

// ---- Sharded gallery store ----

// GalleryEngine is the query surface shared by the GalleryStore, the
// LiveGallery and the Replica; NewAttacker and the HTTP service accept
// any of them. All implementations keep scores bit-identical to
// SimilarityMatrix at any parallelism setting and rank exact score ties
// by subject ID. A Gallery is storage and not an engine.
type GalleryEngine = gallery.Engine

// GalleryStore is a horizontally sharded gallery: N shard files (each a
// standard gallery file) described by a checksummed manifest, queried
// with a deterministic fan-out planner. See DESIGN.md §6.
type GalleryStore = shard.Store

// DefaultNProbe is the default cell fan-out the CLI and service use
// when ANN scanning is enabled without an explicit -nprobe.
const DefaultNProbe = ivf.DefaultNProbe

// GalleryANNSidecarPath returns the index sidecar path for a gallery
// database path ("<db>.ivf"), as written by `gallery index` and loaded
// automatically by OpenGalleryStore.
func GalleryANNSidecarPath(dbPath string) string { return ivf.SidecarPath(dbPath) }

// GalleryShardStat is one shard's health report (records, bytes,
// checksum/dims status), as printed by the `gallery info` subcommand.
type GalleryShardStat = shard.Stat

// GalleryShardMeta is one shard's manifest entry.
type GalleryShardMeta = shard.Meta

// GalleryShardFault identifies a shard that failed to load and why.
type GalleryShardFault = shard.Fault

// GalleryPartialError reports that some shards of a store failed to
// load while the rest remain queryable; errors.Is(err,
// ErrGalleryPartial) matches it.
type GalleryPartialError = shard.PartialError

// GalleryManifestVersion is the shard manifest format version this
// build reads and writes.
const GalleryManifestVersion = shard.ManifestVersion

// Typed sharded-store errors, matched with errors.Is. Truncation,
// checksum, and dimension failures inside manifests and shard files
// reuse the ErrGallery* sentinels above.
var (
	// ErrGalleryPartial: some shards are unavailable, the rest serve.
	ErrGalleryPartial = shard.ErrPartial
	// ErrGalleryShardMissing: a shard file named by the manifest does
	// not exist.
	ErrGalleryShardMissing = shard.ErrShardMissing
	// ErrGalleryShardCorrupt: a shard file disagrees with its manifest
	// entry or fails to decode.
	ErrGalleryShardCorrupt = shard.ErrShardCorrupt
	// ErrGalleryManifestMagic: the file is not a shard manifest.
	ErrGalleryManifestMagic = shard.ErrManifestMagic
	// ErrGalleryManifestVersion: unsupported manifest format version.
	ErrGalleryManifestVersion = shard.ErrManifestVersion
	// ErrGalleryNoANNIndex: enabling the ANN scan on an engine whose
	// database carries no index sidecar.
	ErrGalleryNoANNIndex = shard.ErrNoANNIndex
	// ErrGalleryANNMagic: the sidecar file is not an IVF index.
	ErrGalleryANNMagic = ivf.ErrMagic
	// ErrGalleryANNVersion: unsupported index sidecar format version.
	ErrGalleryANNVersion = ivf.ErrVersion
	// ErrGalleryANNCorrupt: the index sidecar decoded but violates a
	// structural invariant.
	ErrGalleryANNCorrupt = ivf.ErrCorrupt
)

// NewGalleryStore splits an in-memory gallery into a sharded store,
// routing each subject by the stable RouteGalleryID hash. Persist with
// (*GalleryStore).WriteFiles; reopen with OpenGalleryStore.
func NewGalleryStore(g *Gallery, shards int) (*GalleryStore, error) {
	return shard.FromGallery(g, shards, false)
}

// OpenGalleryStore loads a sharded store from a manifest path — or
// transparently wraps a plain single-file gallery as a one-shard store,
// so callers can pass either format. When some shards fail to load the
// surviving shards are returned together with a *GalleryPartialError;
// the caller chooses between degraded service and refusal.
func OpenGalleryStore(path string) (*GalleryStore, error) { return shard.Open(path) }

// RouteGalleryID returns the shard a subject ID routes to — part of
// the on-disk contract, stable across versions and platforms.
func RouteGalleryID(id string, shards int) int { return shard.RouteID(id, shards) }
