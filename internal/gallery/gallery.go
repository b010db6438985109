// Package gallery is the persistent fingerprint database behind the
// enrollment-once, query-many form of the paper's attack, and the query
// machinery every engine shares. The de-anonymization problem of §3.1
// is a gallery problem: an attacker enrolls the functional fingerprints
// of known subjects once, then correlates each anonymous probe against
// the gallery and predicts the argmax (or inspects the top-k
// candidates). The rest of the
// codebase recomputes fingerprints from raw series on every run and
// materializes the full known×anonymous similarity matrix; this package
// stores z-scored fingerprints in a versioned, checksummed binary file
// (codec.go). A Gallery is storage only: the engines (the sharded store,
// which serves one gallery as a one-shard store, and the live engine)
// answer ranked top-k queries with a parallel streaming sweep over the
// stored rows (scan.go, the one exact-scan driver; scanlayout.go, its
// kernels) instead of a dense O(n²) matrix, all under one ranking order
// (BetterByID). The rows are the only in-memory image of the records:
// scans, the IVF gather, the dense path and the codec all read them in
// place.
//
// Scores are bit-identical to match.SimilarityMatrix: enrollment
// z-scores each fingerprint through the same stats.ZScore code path
// match uses on its columns, queries z-score each probe once the same
// way, and every score is the identical linalg.Dot(zk, za)/features
// expression. DenseSimilarity is the exact-equivalence fallback; the
// property test in equiv_test.go pins it and the scan to match.
package gallery

import (
	"context"
	"fmt"
	"time"

	"brainprint/internal/linalg"
)

// Engine is the query surface of the sharded store
// (internal/gallery/shard.Store, which also serves a single-file Gallery
// as one shard), the live engine and the replica: enumeration of the
// enrolled subjects, the three context-aware query paths and the IVF
// approximate-scan knob. The attacker session and the HTTP service are
// written against this interface. Implementations must keep scores
// bit-identical to match.SimilarityMatrix, rank under BetterByID, and
// return results independent of the parallelism setting. A Gallery is
// not an Engine.
//
// The ANN knob trades recall for speed, never correctness of scores:
// whatever nprobe, every returned score is the exact float64
// expression, bit-identical to the dense path — the index restricts
// which records are scored, not how. nprobe at or above the index's
// cell count probes every cell, making results bit-identical to the
// exact scan.
type Engine interface {
	// Len returns the number of enrolled subjects.
	Len() int
	// Features returns the fingerprint dimensionality.
	Features() int
	// FeatureIndex returns the raw-space feature indices the engine was
	// built over, or nil when fingerprints are used as-is.
	FeatureIndex() []int
	// IDs returns the enrolled subject IDs in the engine's canonical
	// enumeration order; the caller must not mutate the result.
	IDs() []string
	// ID returns the subject ID at canonical index i.
	ID(i int) string
	// Index returns the canonical index of a subject ID, or -1.
	Index(id string) int
	// TopKCtx ranks the k enrolled subjects most correlated with the
	// probe, best first.
	TopKCtx(ctx context.Context, probe []float64, k, parallelism int) ([]Candidate, error)
	// QueryAllCtx answers a batch of probes (matrix columns), one
	// ranked top-k list per probe.
	QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) ([][]Candidate, error)
	// DenseSimilarityCtx materializes the full subjects×probes
	// similarity matrix, rows in canonical index order, and returns the
	// subject IDs labelling those rows, taken from the same snapshot the
	// rows were scored from; the caller must not mutate them.
	DenseSimilarityCtx(ctx context.Context, probes *linalg.Matrix, parallelism int) (*linalg.Matrix, []string, error)
	// SetANNProbe selects how many index cells a query scans
	// (0 disables the index and returns to the exact sweep). Enabling
	// requires a loaded index. Not safe to call concurrently with
	// queries.
	SetANNProbe(nprobe int) error
	// ANNProbe reports the active cell fan-out (0 = exact scan).
	ANNProbe() int
	// HasANNIndex reports whether a coarse index is loaded.
	HasANNIndex() bool
}

// Mutable is the write surface of a live gallery engine
// (internal/gallery/live): online enrollment and deletion on top of the
// full Engine query contract, plus compaction control and the
// observability snapshot the serving layer reports. Implementations
// must be safe for concurrent use — enrolls may race queries — and must
// keep every committed mutation durable (write-ahead logged) before it
// becomes visible to queries.
type Mutable interface {
	Engine
	// Enroll adds one subject online. The fingerprint may be
	// gallery-space or raw-space (projected through the feature index);
	// it is normalized exactly like offline enrollment, logged, and then
	// made visible to queries. Duplicate IDs fail with ErrDuplicateID.
	Enroll(id string, fingerprint []float64) error
	// Delete removes one enrolled subject. Unknown IDs fail with
	// ErrUnknownID. The ID may be re-enrolled afterwards.
	Delete(id string) error
	// Compact folds the write-ahead log and in-memory overlay into a
	// fresh immutable base, bounding recovery time and query overlay
	// size. Safe to call while queries and mutations are in flight.
	Compact() error
	// Stats returns the engine's current mutation/compaction counters.
	Stats() MutableStats
}

// MutableStats is the observability snapshot of a live gallery engine,
// surfaced by /healthz and /v1/metrics on a writable server and by the
// gallery info subcommand.
type MutableStats struct {
	// Generation is the current on-disk generation number, incremented
	// by every compaction.
	Generation int
	// Seq is the monotonic mutation sequence number of the last
	// committed write. It counts every enroll and delete ever committed
	// to the directory and is stable across compactions and reopens —
	// the coordinate replication lag is measured in.
	Seq int64
	// BaseSeq is the sequence number the current generation's
	// write-ahead log starts after: Seq - BaseSeq is the current
	// segment's record count.
	BaseSeq int64
	// BaseRecords is the number of records in the immutable base store
	// (tombstoned records included until the next compaction).
	BaseRecords int
	// MemRecords is the number of records in the in-memory overlay not
	// yet folded into the base.
	MemRecords int
	// Tombstones is the number of deleted base records awaiting
	// compaction.
	Tombstones int
	// WALRecords is the number of records in the current write-ahead
	// log segment.
	WALRecords int
	// WALBytes is the current write-ahead log segment size in bytes.
	WALBytes int64
	// Compactions counts completed compactions over the engine's
	// lifetime (this process, not the directory's history).
	Compactions int64
	// Compacting reports whether a compaction is running right now.
	Compacting bool
	// LastCompactDuration is the wall time of the most recent completed
	// compaction (0 before the first one).
	LastCompactDuration time.Duration
	// RecoveredTornBytes is the number of torn trailing write-ahead-log
	// bytes truncated during crash recovery at Open (0 after a clean
	// shutdown).
	RecoveredTornBytes int64
}

// Gallery is an in-memory set of enrolled fingerprints, loaded from or
// saved to the binary gallery format. Fingerprints are stored z-scored
// (zero mean, unit population std over the feature axis), subject-major,
// so a query is one dot product per enrolled subject. A Gallery is
// storage only; query it through shard.Wrap (one shard) or a store built
// from it.
//
// A Gallery is not safe for concurrent mutation; concurrent reads (and
// queries through a store over it) against a fixed gallery are safe.
type Gallery struct {
	features     int
	featureIndex []int // optional raw-space row indices; nil = identity
	ids          []string
	byID         map[string]int
	vecs         []float64 // len = len(ids)*features, subject-major, z-scored
}

// New returns an empty gallery whose fingerprints have the given number
// of features. It panics if features is not positive.
func New(features int) *Gallery {
	if features <= 0 {
		panic(fmt.Sprintf("gallery: non-positive feature count %d", features))
	}
	return &Gallery{features: features, byID: map[string]int{}}
}

// WithFeatureIndex returns an empty gallery over the given raw-space
// feature (row) indices, typically the principal-features subspace
// selected by core.Fingerprints on the enrollment group. The gallery's
// feature count is len(index); raw vectors longer than that are
// projected through the index on enrollment and query, so probes can be
// full connectome vectors. The index is persisted in the gallery file.
func WithFeatureIndex(index []int) *Gallery {
	g := New(len(index))
	g.featureIndex = append([]int(nil), index...)
	return g
}

// Features returns the fingerprint dimensionality.
func (g *Gallery) Features() int { return g.features }

// FeatureIndex returns the raw-space feature indices the gallery was
// built over, or nil when fingerprints are used as-is. The caller must
// not mutate the returned slice.
func (g *Gallery) FeatureIndex() []int { return g.featureIndex }

// Len returns the number of enrolled subjects.
func (g *Gallery) Len() int { return len(g.ids) }

// IDs returns the enrolled subject IDs in enrollment order. The caller
// must not mutate the returned slice.
func (g *Gallery) IDs() []string { return g.ids }

// ID returns the subject ID at enrollment index i.
func (g *Gallery) ID(i int) string { return g.ids[i] }

// Index returns the enrollment index of a subject ID, or -1.
func (g *Gallery) Index(id string) int {
	if i, ok := g.byID[id]; ok {
		return i
	}
	return -1
}

// fingerprint returns the stored z-scored vector of subject i, aliased.
func (g *Gallery) fingerprint(i int) []float64 {
	return g.vecs[i*g.features : (i+1)*g.features]
}

// Fingerprint returns the stored z-scored fingerprint of subject i,
// aliased into the gallery's backing array — the caller must not mutate
// it. It is the same row the streaming kernels read through Blocked,
// exported so the sharded store's IVF gather and dense rows can score
// records without copying the gallery.
func (g *Gallery) Fingerprint(i int) []float64 { return g.fingerprint(i) }

// Blocked returns the streaming kernels' view over the gallery's current
// records: a zero-copy alias of the stored rows, free to take. The view
// covers the records enrolled when it was taken; a later Enroll is seen
// by the next call (and, because Enroll appends, never disturbs the rows
// an earlier view reads). Like every query it must not race a concurrent
// Enroll.
func (g *Gallery) Blocked() *Blocked { return NewBlocked(g.features, g.vecs) }

// EnrollNormalized adds one subject whose fingerprint is already in
// gallery space and already z-scored, storing it verbatim without
// renormalization. Re-running stats.ZScore over an already z-scored
// vector would perturb the stored bits (the recomputed mean is ~1e-17,
// not exactly 0), so the shard router and format migrations use this
// path to move records between galleries while preserving the
// bit-identical-scores contract. IDs must be unique and the vector must
// have exactly Features() entries.
func (g *Gallery) EnrollNormalized(id string, z []float64) error {
	if _, dup := g.byID[id]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("gallery: subject id is %d bytes (max %d)", len(id), maxIDLen)
	}
	if len(z) != g.features {
		return fmt.Errorf("%w: got %d features, gallery has %d", ErrDimMismatch, len(z), g.features)
	}
	g.byID[id] = len(g.ids)
	g.ids = append(g.ids, id)
	g.vecs = append(g.vecs, z...)
	return nil
}

// Enroll adds one subject. The fingerprint may be given in gallery space
// (len == Features()) or, when the gallery carries a feature index, in
// raw space (any longer vector covering every index); it is projected
// and z-scored into the gallery without mutating the argument. IDs must
// be unique.
func (g *Gallery) Enroll(id string, fingerprint []float64) error {
	if _, dup := g.byID[id]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("gallery: subject id is %d bytes (max %d)", len(id), maxIDLen)
	}
	z, err := g.Normalize(fingerprint)
	if err != nil {
		return fmt.Errorf("enrolling %q: %w", id, err)
	}
	g.byID[id] = len(g.ids)
	g.ids = append(g.ids, id)
	g.vecs = append(g.vecs, z...)
	return nil
}

// EnrollMatrix enrolls every column j of group as subject ids[j]. Like
// Enroll, group may be in gallery space or raw space.
func (g *Gallery) EnrollMatrix(ids []string, group *linalg.Matrix) error {
	_, n := group.Dims()
	if len(ids) != n {
		return fmt.Errorf("gallery: %d ids for %d subject columns", len(ids), n)
	}
	for j, id := range ids {
		if err := g.Enroll(id, group.Col(j)); err != nil {
			return err
		}
	}
	return nil
}

// Normalize projects a fingerprint into gallery space and z-scores it —
// exactly the transformation Enroll applies before storing — without
// enrolling anything. The live engine uses it to materialize the
// canonical stored bits of a record before committing them to the
// write-ahead log, so replayed records are bit-identical to what
// offline enrollment of the same raw vector would have stored. The
// argument is never mutated.
func (g *Gallery) Normalize(fingerprint []float64) ([]float64, error) {
	return Normalize(fingerprint, g.features, g.featureIndex)
}
