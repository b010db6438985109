// Package shard is the horizontally sharded gallery engine: it splits
// enrollment across N shard files — each a standard gallery file, so
// the per-shard codec, checksums, and tooling are reused wholesale —
// routed by a stable hash of the subject ID, describes the set in a
// checksummed manifest (manifest.go), and answers TopK / QueryAll /
// DenseSimilarityCtx queries — a single-file gallery is queried as a
// one-shard store (Wrap) — by handing its per-shard scan plan to the exact-scan driver every engine
// shares (gallery.ScanUnits; scan.go holds the plan and the exact/IVF
// dispatch, query.go the public methods). A store holds each record
// once, in its shard gallery: the exact stream and the IVF gather both
// read those rows in place, and construction builds nothing per shard
// beyond the ID enumeration and the unit plan.
//
// The paper's attack is a gallery problem, and linkage attacks only
// become dangerous at population scale: a million-subject gallery
// neither fits one append-only file comfortably nor scans fast enough
// in one pass. Sharding bounds per-file blast radius (a corrupt shard
// leaves the others queryable — Open degrades with a typed
// *PartialError) and parallelizes the scan across the full store. Every
// scan is float64, so returned scores are bit-identical to
// match.SimilarityMatrix.
//
// Determinism contract: results are bit-identical at any parallelism
// AND any shard count. Per-subject scores never depend on shard
// placement (each is a serial dot product over that subject's stored
// vector), and rankings order by (score descending, subject ID
// ascending) — a strict total order, so the merged top-k is unique
// regardless of how records are distributed or chunked.
package shard

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"brainprint/internal/defense"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/ivf"
)

// Store is a sharded gallery: up to N per-shard galleries plus the
// manifest geometry. Subjects are enumerated shard-major (all of shard
// 0 in enrollment order, then shard 1, …) over the loaded shards; that
// enumeration is the canonical Candidate.Index space. A Store is
// read-only after construction apart from the ANN setters (ann.go),
// which must not race with queries; concurrent queries are safe.
type Store struct {
	features     int
	featureIndex []int
	defense      *defense.Descriptor
	manifest     bool

	// galleries[i] is the loaded gallery of shard i, nil when the shard
	// failed to load; meta[i] is its manifest entry (synthesized for a
	// wrapped single-file gallery). bases[i] is shard i's first global
	// index; faulted shards occupy an empty range.
	galleries []*gallery.Gallery
	meta      []Meta
	faults    []Fault
	bases     []int
	total     int
	allIDs    []string

	// units is the fixed scan plan over the loaded shards (scan.go),
	// computed once at construction.
	units []gallery.Unit

	// ann is the loaded IVF coarse index, nil when none; nprobe is the
	// active cell fan-out (0 = exact scan). See ann.go.
	ann    *ivf.Index
	nprobe int
}

var _ gallery.Engine = (*Store)(nil)

// Fault describes one shard that failed to load.
type Fault struct {
	// Shard is the shard's index in the manifest.
	Shard int
	// Name is the shard filename from the manifest.
	Name string
	// Err is the typed load failure (ErrShardMissing, ErrShardCorrupt
	// wrapping the gallery codec error, …).
	Err error
}

// PartialError reports that some shards failed to load while the rest
// remain queryable. errors.Is(err, ErrPartial) matches it, and Unwrap
// exposes the per-shard errors so errors.Is also reaches the underlying
// typed failures (gallery.ErrChecksum, ErrShardMissing, …).
type PartialError struct {
	// Faults lists the unusable shards in manifest order.
	Faults []Fault
}

// Error summarizes the faulted shards.
func (e *PartialError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard: %d shard(s) unavailable:", len(e.Faults))
	for _, f := range e.Faults {
		fmt.Fprintf(&b, " [%d %s: %v]", f.Shard, f.Name, f.Err)
	}
	return b.String()
}

// Is matches the ErrPartial sentinel.
func (e *PartialError) Is(target error) bool { return target == ErrPartial }

// Unwrap exposes every per-shard failure for errors.Is / errors.As.
func (e *PartialError) Unwrap() []error {
	errs := make([]error, len(e.Faults))
	for i, f := range e.Faults {
		errs[i] = f.Err
	}
	return errs
}

// RouteID returns the shard a subject ID routes to: FNV-1a 64 of the ID
// modulo the shard count. The function is part of the on-disk contract
// (stable across versions and platforms), so any writer and any reader
// agree on placement and Index lookups stay O(1) in the shard count.
func RouteID(id string, shards int) int {
	h := fnv.New64a()
	io.WriteString(h, id)
	return int(h.Sum64() % uint64(shards))
}

// FromGallery splits an in-memory gallery into a sharded store with the
// given shard count, routing each enrolled subject by RouteID. Stored
// fingerprints move verbatim (no renormalization), so per-subject
// scores are bit-identical to the source gallery's.
//
// quantize is vestigial: the int8 scan it used to enable is gone, so
// true is refused with an error naming the removal. The parameter
// survives only because the frozen bench module calls
// FromGallery(g, n, false); a later benchmark-archetype PR drops it.
func FromGallery(g *gallery.Gallery, shards int, quantize bool) (*Store, error) {
	if quantize {
		return nil, fmt.Errorf("shard: the int8 quantized scan was removed (every scan is float64); pass quantize=false")
	}
	if shards <= 0 || shards > maxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1, %d]", shards, maxShards)
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("shard: refusing to shard an empty gallery")
	}
	parts := make([]*gallery.Gallery, shards)
	for i := range parts {
		if idx := g.FeatureIndex(); idx != nil {
			parts[i] = gallery.WithFeatureIndex(idx)
		} else {
			parts[i] = gallery.New(g.Features())
		}
	}
	for i, id := range g.IDs() {
		if err := parts[RouteID(id, shards)].EnrollNormalized(id, g.Fingerprint(i)); err != nil {
			return nil, err
		}
	}
	meta := make([]Meta, shards)
	for i, p := range parts {
		meta[i] = Meta{Name: fmt.Sprintf("shard %d (in memory)", i), Records: p.Len(), Features: g.Features()}
	}
	s := newStore(g.Features(), g.FeatureIndex(), parts, meta, nil)
	s.manifest = true
	return s, nil
}

// Wrap presents a single-file gallery as a one-shard store — the
// transparent migration path: every gallery file written by today's
// codec is byte-for-byte a valid one-shard store, and global indices
// coincide with the gallery's enrollment indices.
func Wrap(g *gallery.Gallery) *Store {
	meta := []Meta{{Name: "gallery (single file)", Records: g.Len(), Features: g.Features()}}
	return newStore(g.Features(), g.FeatureIndex(), []*gallery.Gallery{g}, meta, nil)
}

// newStore assembles a store over loaded (and faulted, nil) shard
// galleries, precomputing the global enumeration.
func newStore(features int, index []int, galleries []*gallery.Gallery, meta []Meta, faults []Fault) *Store {
	s := &Store{
		features:     features,
		featureIndex: index,
		galleries:    galleries,
		meta:         meta,
		faults:       faults,
		bases:        make([]int, len(galleries)),
	}
	for i, g := range galleries {
		s.bases[i] = s.total
		if g != nil {
			s.total += g.Len()
		}
	}
	s.allIDs = make([]string, 0, s.total)
	for _, g := range galleries {
		if g != nil {
			s.allIDs = append(s.allIDs, g.IDs()...)
		}
	}
	s.units = planUnits(galleries, s.bases)
	return s
}

// shardFileName derives shard i's filename from the manifest path:
// manifest "hcp.bpm" names shards "hcp.s000.bpg", "hcp.s001.bpg", ….
func shardFileName(manifestPath string, i int) string {
	base := filepath.Base(manifestPath)
	if ext := filepath.Ext(base); ext != "" {
		base = strings.TrimSuffix(base, ext)
	}
	return fmt.Sprintf("%s.s%03d.bpg", base, i)
}

// WriteFiles persists the store as a manifest at manifestPath plus one
// shard file per shard in the same directory, replacing existing files.
// Shard files are standard gallery files; the manifest records each
// one's record count, dimensionality, size, and whole-file CRC.
func (s *Store) WriteFiles(manifestPath string) error {
	if len(s.faults) > 0 {
		return fmt.Errorf("shard: refusing to persist a partially loaded store (%d faulted shards)", len(s.faults))
	}
	dir := filepath.Dir(manifestPath)
	m := &Manifest{
		Features:     s.features,
		FeatureIndex: s.featureIndex,
		Defense:      s.defense,
		Shards:       make([]Meta, len(s.galleries)),
	}
	for i, g := range s.galleries {
		name := shardFileName(manifestPath, i)
		path := filepath.Join(dir, name)
		crc := crc32.NewIEEE()
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := g.Save(io.MultiWriter(f, crc)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		m.Shards[i] = Meta{Name: name, Records: g.Len(), Features: g.Features(), Bytes: st.Size(), CRC: crc.Sum32()}
	}
	return m.writeManifestFile(manifestPath)
}

// Open loads a sharded store from a manifest file — or, transparently,
// wraps a plain single-file gallery as a one-shard store, so callers
// pass either format's path without caring which they hold.
//
// Shard failures degrade rather than abort: a missing file, a CRC or
// size mismatch, a dims mismatch, or a decode error marks that shard
// faulted and loading continues. When any shard faulted, Open returns
// the store of surviving shards together with a *PartialError
// (errors.Is(err, ErrPartial)); the caller chooses between degraded
// service and refusal. A corrupt manifest itself is a hard error.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, 8)
	_, rerr := io.ReadFull(f, magic)
	f.Close()
	if rerr == nil && string(magic) == manifestMagic {
		m, err := readManifestFile(path)
		if err != nil {
			return nil, err
		}
		s, err := openShards(m, filepath.Dir(path))
		if err != nil {
			// Degraded (or failed) stores skip the sidecar: an index
			// over the full shard set cannot describe the survivors.
			return s, err
		}
		if err := s.loadANN(path); err != nil {
			return nil, err
		}
		return s, nil
	}
	g, err := gallery.OpenFile(path)
	if err != nil {
		return nil, err
	}
	s := Wrap(g)
	s.meta[0].Name = filepath.Base(path)
	if st, err := os.Stat(path); err == nil {
		s.meta[0].Bytes = st.Size()
	}
	if err := s.loadANN(path); err != nil {
		return nil, err
	}
	return s, nil
}

// openShards loads every shard file named by the manifest, verifying
// each against its entry, and assembles the store.
func openShards(m *Manifest, dir string) (*Store, error) {
	galleries := make([]*gallery.Gallery, len(m.Shards))
	var faults []Fault
	for i, sh := range m.Shards {
		g, err := loadShard(m, i, filepath.Join(dir, sh.Name))
		if err != nil {
			faults = append(faults, Fault{Shard: i, Name: sh.Name, Err: err})
			continue
		}
		galleries[i] = g
	}
	s := newStore(m.Features, m.FeatureIndex, galleries, m.Shards, faults)
	s.manifest = true
	s.defense = m.Defense
	if len(faults) > 0 {
		return s, &PartialError{Faults: faults}
	}
	return s, nil
}

// loadShard opens and fully verifies one shard file: gallery decode
// (record CRCs included), whole-file CRC, size, record count, and
// dimensionality against both the manifest entry and the store-wide
// feature count.
func loadShard(m *Manifest, i int, path string) (*gallery.Gallery, error) {
	if m.Shards[i].Features != m.Features {
		return nil, fmt.Errorf("%w: manifest entry declares %d features, store has %d",
			ErrShardCorrupt, m.Shards[i].Features, m.Features)
	}
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrShardMissing, path)
		}
		return nil, err
	}
	defer f.Close()
	crc := crc32.NewIEEE()
	tee := io.TeeReader(f, crc)
	g, err := gallery.Load(tee)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrShardCorrupt, err)
	}
	// Load consumes the whole stream on success, but drain defensively
	// so the file CRC always covers every byte.
	n, err := io.Copy(io.Discard, tee)
	if err != nil {
		return nil, fmt.Errorf("shard: reading %s: %w", path, err)
	}
	if n > 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last record", ErrShardCorrupt, n)
	}
	// Dims before size and CRC: a regenerated or swapped shard fails
	// all three, and "dims mismatch" is the actionable diagnosis — not
	// a raw size, checksum, or decode error. On a defended store the
	// message also names the suppressed-feature count: a geometry
	// dispute there usually means a shard regenerated without the
	// defense pipeline.
	if g.Features() != m.Features {
		detail := ""
		if n := m.Defense.SuppressedFeatures(); n > 0 {
			detail = fmt.Sprintf("; the manifest's defense pipeline suppresses %d features", n)
		}
		return nil, fmt.Errorf("%w: shard file has %d features, manifest expects %d%s (%w)",
			ErrShardCorrupt, g.Features(), m.Features, detail, gallery.ErrDimMismatch)
	}
	if g.Len() != m.Shards[i].Records {
		return nil, fmt.Errorf("%w: shard file has %d records, manifest expects %d",
			ErrShardCorrupt, g.Len(), m.Shards[i].Records)
	}
	if st, err := f.Stat(); err == nil && st.Size() != m.Shards[i].Bytes {
		return nil, fmt.Errorf("%w: shard file is %d bytes, manifest expects %d",
			ErrShardCorrupt, st.Size(), m.Shards[i].Bytes)
	}
	if got := crc.Sum32(); got != m.Shards[i].CRC {
		return nil, fmt.Errorf("%w: file CRC %08x != manifest %08x (%w)",
			ErrShardCorrupt, got, m.Shards[i].CRC, gallery.ErrChecksum)
	}
	return g, nil
}

// ---- Engine surface: enumeration ----

// Len returns the number of subjects across the loaded shards.
func (s *Store) Len() int { return s.total }

// Features returns the fingerprint dimensionality.
func (s *Store) Features() int { return s.features }

// FeatureIndex returns the raw-space feature indices the store was
// built over, or nil. The caller must not mutate the result.
func (s *Store) FeatureIndex() []int { return s.featureIndex }

// IDs returns every loaded subject ID in global (shard-major) order.
// The caller must not mutate the result.
func (s *Store) IDs() []string { return s.allIDs }

// ID returns the subject ID at global index i.
func (s *Store) ID(i int) string { return s.allIDs[i] }

// Index returns the global index of a subject ID, or -1. The routed
// shard is checked first; the remaining shards are scanned as a
// fallback so wrapped single-file stores (which were never
// hash-routed) resolve too.
func (s *Store) Index(id string) int {
	n := len(s.galleries)
	r := RouteID(id, n)
	for off := 0; off < n; off++ {
		si := (r + off) % n
		g := s.galleries[si]
		if g == nil {
			continue
		}
		if li := g.Index(id); li >= 0 {
			return s.bases[si] + li
		}
	}
	return -1
}

// Fingerprint returns the stored z-scored fingerprint at global index
// gi, aliased into the owning shard's backing array — the caller must
// not mutate it. It is the record accessor the live engine's merged
// sweep reads, mirroring (*gallery.Gallery).Fingerprint.
func (s *Store) Fingerprint(gi int) []float64 {
	si, li := s.locate(gi)
	return s.galleries[si].Fingerprint(li)
}

// ---- shard bookkeeping ----

// Shards returns the manifest shard count (faulted shards included).
func (s *Store) Shards() int { return len(s.galleries) }

// HasManifest reports whether the store is manifest-backed (built by
// FromGallery or opened from a shard manifest), as opposed to a
// wrapped single-file gallery.
func (s *Store) HasManifest() bool { return s.manifest }

// LoadedShards returns how many shards loaded successfully.
func (s *Store) LoadedShards() int { return len(s.galleries) - len(s.faults) }

// Faults returns the shards that failed to load, in manifest order
// (empty for a fully healthy store).
func (s *Store) Faults() []Fault { return s.faults }

// Defense returns the anonymization pipeline the store's records were
// built through, nil for an undefended store. The caller must not
// mutate the result.
func (s *Store) Defense() *defense.Descriptor { return s.defense }

// SetDefense records the anonymization pipeline the store's records
// were built through, so WriteFiles persists it in the manifest. It
// labels the records; it does not transform them — the caller (the
// live engine's compaction, `gallery defend`) applies defense.Apply to
// the snapshot before sharding it.
func (s *Store) SetDefense(d *defense.Descriptor) { s.defense = d }

// locate maps a global index to (shard, local index) over the loaded
// shards.
func (s *Store) locate(gi int) (int, int) {
	si := sort.Search(len(s.bases), func(i int) bool { return s.bases[i] > gi }) - 1
	// Faulted shards occupy empty ranges; sort.Search may land on one
	// whose base equals the next loaded shard's. Walk forward to the
	// shard that actually owns the index.
	for s.galleries[si] == nil || gi-s.bases[si] >= s.galleries[si].Len() {
		si++
	}
	return si, gi - s.bases[si]
}

// Stat is one shard's health report, as printed by `gallery info`.
type Stat struct {
	// Meta is the manifest entry (expected records, size, CRC).
	Meta Meta
	// Loaded reports whether the shard is queryable.
	Loaded bool
	// Err is the typed load failure for an unloaded shard, nil
	// otherwise.
	Err error
}

// Stats returns one Stat per manifest shard, in manifest order —
// loaded shards verified (decode + CRC + dims), faulted shards carrying
// their typed failure.
func (s *Store) Stats() []Stat {
	out := make([]Stat, len(s.meta))
	for i, m := range s.meta {
		out[i] = Stat{Meta: m, Loaded: s.galleries[i] != nil}
	}
	for _, f := range s.faults {
		out[f.Shard].Err = f.Err
	}
	return out
}
