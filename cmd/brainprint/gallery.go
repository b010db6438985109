// The gallery subcommands: enroll synthetic cohorts into a persistent
// fingerprint database on disk (single-file or sharded), inspect it,
// convert between layouts, and attack anonymous probe sessions against
// it with ranked top-k queries.
//
//	brainprint gallery enroll  -db hcp.bpg -task REST1 -encoding LR
//	brainprint gallery shard   -db hcp.bpg -out hcp.bpm -shards 4
//	brainprint gallery live    -from hcp.bpg -db hcp.live
//	brainprint gallery compact -db hcp.live
//	brainprint gallery index   -db hcp.bpm
//	brainprint gallery info    -db hcp.bpm
//	brainprint gallery query   -db hcp.bpm -task REST2 -encoding RL -k 5 -ann
//	brainprint gallery probe   -task REST2 -encoding RL -subject 3
//
// query, info, and serve accept a single-file gallery (.bpg), a shard
// manifest (.bpm), or a live writable directory (gallery live) — the
// store layer auto-detects the format.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"brainprint"
)

// runGallery dispatches the gallery subcommands.
func runGallery(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("gallery: missing subcommand (want enroll, shard, live, compact, defend, index, query, info, or probe)")
	}
	switch args[0] {
	case "enroll":
		return galleryEnroll(args[1:], out)
	case "shard":
		return galleryShard(args[1:], out)
	case "live":
		return galleryLive(args[1:], out)
	case "compact":
		return galleryCompact(args[1:], out)
	case "defend":
		return galleryDefend(args[1:], out)
	case "index":
		return galleryIndex(args[1:], out)
	case "query":
		return galleryQuery(args[1:], out)
	case "info":
		return galleryInfo(args[1:], out)
	case "probe":
		return galleryProbe(args[1:], out)
	default:
		return fmt.Errorf("gallery: unknown subcommand %q (want enroll, shard, live, compact, defend, index, query, info, or probe)", args[0])
	}
}

// isLiveDir reports whether path is a live gallery directory (holds a
// CURRENT generation pointer).
func isLiveDir(path string) bool {
	st, err := os.Stat(path)
	if err != nil || !st.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, "CURRENT"))
	return err == nil
}

// galleryLive converts a read-only gallery database (single-file or
// sharded) into a live, writable gallery directory — or, with
// -features, creates an empty one. The live directory accepts online
// enrollment via `serve -writable` and answers queries bit-identically
// to the source it was seeded from.
func galleryLive(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint gallery live", flag.ContinueOnError)
	from := fs.String("from", "", "gallery file or shard manifest to seed from (omit with -features for an empty live gallery)")
	db := fs.String("db", "", "live gallery directory to create (required)")
	features := fs.Int("features", 0, "create an empty live gallery with this dimensionality instead of seeding from -from")
	shards := fs.Int("shards", 0, "shard count compaction writes (0 = inherit from -from, or 1 when empty)")
	spec := fs.String("defense", "", "anonymization pipeline applied at every base build (e.g. 'ksame(k=5)'); persisted in the manifest and inherited at reopen")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("gallery live: -db is required")
	}
	if (*from == "") == (*features == 0) {
		return fmt.Errorf("gallery live: exactly one of -from and -features is required")
	}
	defDesc, err := brainprint.ParseDefenseDescriptor(*spec)
	if err != nil {
		return fmt.Errorf("gallery live: %w", err)
	}
	opts := brainprint.LiveGalleryOptions{Shards: *shards, Defense: defDesc}
	if *from == "" {
		e, err := brainprint.CreateLiveGallery(*db, *features, opts)
		if err != nil {
			return err
		}
		defer e.Close()
		fmt.Fprintf(out, "created empty live gallery %s (%d features)\n", *db, *features)
		return nil
	}
	src, err := openStore(*from, out)
	if err != nil {
		return err
	}
	e, err := brainprint.CreateLiveGalleryFrom(*db, src, opts)
	if err != nil {
		return err
	}
	defer e.Close()
	st := e.Stats()
	fmt.Fprintf(out, "created live gallery %s from %s (%d subjects, %d features, generation %d, sequence %d)\n",
		*db, *from, e.Len(), e.Features(), st.Generation, st.Seq)
	return nil
}

// galleryCompact folds a live gallery's write-ahead log and in-memory
// overlay into a fresh immutable base under a generation switch —
// bounding the next open's replay time and the query overlay size.
func galleryCompact(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint gallery compact", flag.ContinueOnError)
	db := fs.String("db", "", "live gallery directory to compact (required)")
	shards := fs.Int("shards", 0, "shard count for the new base (0 = keep the engine default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("gallery compact: -db is required")
	}
	e, err := brainprint.OpenLiveGallery(*db, brainprint.LiveGalleryOptions{Shards: *shards})
	if err != nil {
		return err
	}
	defer e.Close()
	before := e.Stats()
	if err := e.Compact(); err != nil {
		return err
	}
	after := e.Stats()
	fmt.Fprintf(out, "compacted %s: generation %d -> %d, folded %d log records (%d overlay, %d tombstones) into %d base records at sequence %d\n",
		*db, before.Generation, after.Generation, before.WALRecords, before.MemRecords, before.Tombstones, after.BaseRecords, after.Seq)
	if before.RecoveredTornBytes > 0 {
		fmt.Fprintf(out, "recovered a torn write-ahead log tail (%d bytes truncated)\n", before.RecoveredTornBytes)
	}
	return nil
}

// galleryDefend applies an anonymization pipeline to an enrolled
// gallery database and writes the defended release as a sharded store
// whose manifest records the pipeline — so `gallery info`, /healthz,
// and /v1/gallery on the release all report how it was anonymized.
// The source database is never modified. The transform is
// deterministic: the same source, spec, and seed produce a
// byte-identical release at any -parallelism.
func galleryDefend(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint gallery defend", flag.ContinueOnError)
	db := fs.String("db", "", "gallery file or shard manifest to defend (required)")
	outPath := fs.String("out", "", "shard manifest of the defended release to write (required)")
	spec := fs.String("defense", "", "pipeline spec, steps joined with '+' (required), e.g. 'ksame(k=5)' or 'suppress(top=20)+noise(laplace,eps=0.5,seed=7)'")
	shards := fs.Int("shards", 0, "shard count of the release (0 = inherit the source layout)")
	par := fs.Int("parallelism", 0, "worker count (0 = all cores, 1 = serial); the release is identical at any setting")
	force := fs.Bool("force", false, "overwrite an existing manifest")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *db == "" || *outPath == "" {
		return fmt.Errorf("gallery defend: -db and -out are required")
	}
	d, err := brainprint.ParseDefenseDescriptor(*spec)
	if err != nil {
		return fmt.Errorf("gallery defend: %w", err)
	}
	if d == nil {
		return fmt.Errorf("gallery defend: -defense is required (spec %q resolves to the undefended pipeline)", *spec)
	}
	if !*force {
		if _, err := os.Stat(*outPath); err == nil {
			return fmt.Errorf("gallery defend: %s already exists (use -force to overwrite)", *outPath)
		}
	}
	src, err := openStore(*db, out)
	if err != nil {
		return err
	}
	var snap *brainprint.Gallery
	if idx := src.FeatureIndex(); idx != nil {
		snap = brainprint.NewGalleryIndexed(idx)
	} else {
		snap = brainprint.NewGallery(src.Features())
	}
	for gi, id := range src.IDs() {
		if err := snap.EnrollNormalized(id, src.Fingerprint(gi)); err != nil {
			return err
		}
	}
	defended, err := brainprint.ApplyDefense(snap, d, *par)
	if err != nil {
		return err
	}
	n := *shards
	if n <= 0 {
		n = src.Shards()
	}
	store, err := brainprint.NewGalleryStore(defended, n)
	if err != nil {
		return err
	}
	store.SetDefense(d)
	if err := store.WriteFiles(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "defended %d subjects (%d features each) from %s into %s (%d shards)\n",
		defended.Len(), defended.Features(), *db, *outPath, n)
	fmt.Fprintf(out, "  defense: %s\n", d)
	return nil
}

// galleryIndex trains an IVF coarse index over a gallery database and
// persists it as the database's ".ivf" sidecar, enabling sub-linear
// -ann/-nprobe queries. The build is deterministic given the seed (at
// any -parallelism), and the index never changes reported scores —
// only which candidates the scan visits (see DESIGN.md §9). For a live
// directory the index covers the current generation's base store and
// is rebuilt automatically at every compaction.
func galleryIndex(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint gallery index", flag.ContinueOnError)
	db := fs.String("db", "", "gallery file, shard manifest, or live directory to index (required)")
	cells := fs.Int("cells", 0, "k-means cell count (0 = square root of the record count, clamped to [4, 512])")
	seed := fs.Int64("seed", 1, "training seed (the index is bit-identical given the seed)")
	par := fs.Int("parallelism", 0, "worker count (0 = all cores, 1 = serial); the index is identical at any setting")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("gallery index: -db is required")
	}
	if isLiveDir(*db) {
		e, err := brainprint.OpenLiveGallery(*db, brainprint.LiveGalleryOptions{})
		if err != nil {
			return err
		}
		defer e.Close()
		if err := e.BuildANN(context.Background(), *cells, *seed, *par); err != nil {
			return err
		}
		st := e.Stats()
		fmt.Fprintf(out, "indexed %d base records of %s (generation %d sidecar; query with -ann or -nprobe)\n",
			st.BaseRecords, *db, st.Generation)
		return nil
	}
	g, err := openStore(*db, out)
	if err != nil {
		return err
	}
	if err := g.BuildANN(context.Background(), *cells, *seed, *par); err != nil {
		return err
	}
	if err := g.SaveANN(*db); err != nil {
		return err
	}
	fmt.Fprintf(out, "indexed %d subjects of %s into %d cells (%s; query with -ann or -nprobe)\n",
		g.Len(), *db, g.ANNIndex().Cells(), brainprint.GalleryANNSidecarPath(*db))
	return nil
}

// openStore opens a gallery database of either layout, downgrading a
// partial shard failure to a warning so degraded stores stay usable
// from the CLI (the typed error still names every faulted shard).
func openStore(path string, out io.Writer) (*brainprint.GalleryStore, error) {
	store, err := brainprint.OpenGalleryStore(path)
	if err != nil {
		if !errors.Is(err, brainprint.ErrGalleryPartial) {
			return nil, err
		}
		fmt.Fprintf(out, "warning: %v\n", err)
	}
	return store, nil
}

// cohortFlags are the flags shared by enroll and query: they select the
// synthetic cohort and the session whose scans become fingerprints.
type cohortFlags struct {
	dataset     string
	scale       string
	subjects    int
	regions     int
	seed        int64
	task        string
	encoding    string
	session     int
	idprefix    string
	parallelism int
}

func (c *cohortFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.dataset, "dataset", "hcp", "cohort family: hcp or adhd")
	fs.StringVar(&c.scale, "scale", "small", "cohort scale: small, medium, or paper")
	fs.IntVar(&c.subjects, "subjects", 0, "override subject count (0 = scale default)")
	fs.IntVar(&c.regions, "regions", 0, "override region count (0 = scale default)")
	fs.Int64Var(&c.seed, "seed", 1, "master random seed (enroll and query must agree to target the same cohort)")
	fs.StringVar(&c.task, "task", "REST1", "hcp only: scan condition (REST1, REST2, EMOTION, GAMBLING, LANGUAGE, MOTOR, RELATIONAL, SOCIAL, WM)")
	fs.StringVar(&c.encoding, "encoding", "LR", "hcp only: phase encoding (LR or RL)")
	fs.IntVar(&c.session, "session", 0, "adhd only: resting session (0 or 1)")
	fs.StringVar(&c.idprefix, "idprefix", "", "subject ID prefix (default: the dataset name); distinct prefixes let several cohorts coexist in one gallery")
	fs.IntVar(&c.parallelism, "parallelism", 0, "worker count (0 = all cores, 1 = serial)")
}

// prefix resolves the subject ID prefix.
func (c *cohortFlags) prefix() string {
	if c.idprefix != "" {
		return c.idprefix
	}
	return c.dataset
}

// buildGroup generates the selected cohort deterministically from the
// seed and returns subject IDs plus the raw features×subjects group
// matrix of the selected session.
func (c *cohortFlags) buildGroup() ([]string, *brainprint.Matrix, error) {
	hcpParams, adhdParams, err := paramsForScale(c.scale, c.subjects, c.regions, c.seed)
	if err != nil {
		return nil, nil, err
	}
	opt := brainprint.ConnectomeOptions{Parallelism: c.parallelism}
	switch c.dataset {
	case "hcp":
		task, err := brainprint.ParseTask(c.task)
		if err != nil {
			return nil, nil, err
		}
		enc, err := brainprint.ParseEncoding(c.encoding)
		if err != nil {
			return nil, nil, err
		}
		cohort, err := brainprint.GenerateHCP(hcpParams)
		if err != nil {
			return nil, nil, err
		}
		scans, err := cohort.ScansFor(task, enc)
		if err != nil {
			return nil, nil, err
		}
		group, err := brainprint.GroupMatrix(scans, opt)
		if err != nil {
			return nil, nil, err
		}
		ids := make([]string, len(scans))
		for i, s := range scans {
			ids[i] = fmt.Sprintf("%s-s%03d", c.prefix(), s.Subject)
		}
		return ids, group, nil
	case "adhd":
		if c.session != 0 && c.session != 1 {
			return nil, nil, fmt.Errorf("gallery: -session must be 0 or 1, got %d", c.session)
		}
		cohort, err := brainprint.GenerateADHD(adhdParams)
		if err != nil {
			return nil, nil, err
		}
		all := make([]int, adhdParams.NumSubjects())
		for i := range all {
			all[i] = i
		}
		scans, err := cohort.SessionScans(all, c.session)
		if err != nil {
			return nil, nil, err
		}
		group, err := brainprint.GroupMatrixADHD(scans, opt)
		if err != nil {
			return nil, nil, err
		}
		ids := make([]string, len(scans))
		for i, s := range scans {
			ids[i] = fmt.Sprintf("%s-s%03d", c.prefix(), s.Subject)
		}
		return ids, group, nil
	}
	return nil, nil, fmt.Errorf("gallery: unknown dataset %q (want hcp or adhd)", c.dataset)
}

// galleryEnroll builds fingerprints for one cohort session and writes
// (or, with -append, extends) a gallery file — or, with -shards, a
// sharded store (manifest plus shard files).
func galleryEnroll(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint gallery enroll", flag.ContinueOnError)
	var cf cohortFlags
	cf.register(fs)
	db := fs.String("db", "", "gallery file (or shard manifest, with -shards) to write (required)")
	features := fs.Int("features", 100, "principal-features subspace size selected on the enrollment group (0 = keep every feature)")
	appendMode := fs.Bool("append", false, "append to an existing gallery file instead of creating one (uses the file's stored feature index)")
	force := fs.Bool("force", false, "overwrite an existing gallery file")
	shards := fs.Int("shards", 1, "write a sharded store with this many shard files (1 = single-file gallery)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("gallery enroll: -db is required")
	}
	if *shards < 1 {
		return fmt.Errorf("gallery enroll: -shards %d must be at least 1", *shards)
	}
	if *appendMode && *shards > 1 {
		return fmt.Errorf("gallery enroll: -append cannot be combined with -shards (append targets a single-file gallery)")
	}
	if *appendMode {
		// Appending reuses the file's stored feature selection; an
		// explicit -features alongside -append would be silently
		// discarded, so reject the combination.
		conflict := false
		fs.Visit(func(f *flag.Flag) { conflict = conflict || f.Name == "features" })
		if conflict {
			return fmt.Errorf("gallery enroll: -features cannot be combined with -append (the file's stored feature index is used)")
		}
	} else if !*force {
		if _, err := os.Stat(*db); err == nil {
			return fmt.Errorf("gallery enroll: %s already exists (use -append to extend it or -force to overwrite)", *db)
		}
	}
	ids, group, err := cf.buildGroup()
	if err != nil {
		return err
	}

	if *appendMode {
		g, err := brainprint.EnrollGalleryFile(*db, ids, group)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "appended %d subjects to %s (now %d subjects, %d features)\n",
			len(ids), *db, g.Len(), g.Features())
		return nil
	}

	cfg := brainprint.DefaultAttackConfig()
	cfg.Features = *features
	cfg.Parallelism = cf.parallelism
	fps, idx, err := brainprint.Fingerprints(group, cfg)
	if err != nil {
		return err
	}
	var g *brainprint.Gallery
	if idx != nil {
		g = brainprint.NewGalleryIndexed(idx)
	} else {
		g = brainprint.NewGallery(fps.Rows())
	}
	if err := g.EnrollMatrix(ids, fps); err != nil {
		return err
	}
	if *shards > 1 {
		store, err := brainprint.NewGalleryStore(g, *shards)
		if err != nil {
			return err
		}
		if err := store.WriteFiles(*db); err != nil {
			return err
		}
		fmt.Fprintf(out, "enrolled %d subjects (%d features each) into %s (%d shards)\n",
			g.Len(), g.Features(), *db, *shards)
		return nil
	}
	if err := g.WriteFile(*db); err != nil {
		return err
	}
	fmt.Fprintf(out, "enrolled %d subjects (%d features each) into %s\n", g.Len(), g.Features(), *db)
	return nil
}

// galleryShard converts a single-file gallery into a sharded store:
// subjects are routed by the stable hash, shard files are standard
// gallery files, and the manifest records per-shard checksums and dims.
func galleryShard(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint gallery shard", flag.ContinueOnError)
	db := fs.String("db", "", "single-file gallery to convert (required)")
	outPath := fs.String("out", "", "shard manifest to write (required; shard files land beside it)")
	shards := fs.Int("shards", 4, "shard count")
	force := fs.Bool("force", false, "overwrite an existing manifest")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *db == "" || *outPath == "" {
		return fmt.Errorf("gallery shard: -db and -out are required")
	}
	if !*force {
		if _, err := os.Stat(*outPath); err == nil {
			return fmt.Errorf("gallery shard: %s already exists (use -force to overwrite)", *outPath)
		}
	}
	g, err := brainprint.OpenGallery(*db)
	if err != nil {
		return err
	}
	store, err := brainprint.NewGalleryStore(g, *shards)
	if err != nil {
		return err
	}
	if err := store.WriteFiles(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "sharded %d subjects (%d features each) from %s into %s (%d shards)\n",
		g.Len(), g.Features(), *db, *outPath, *shards)
	return nil
}

// queryEngine is the slice of the gallery surface the query subcommand
// needs — satisfied by the read-only store and the live engine alike.
type queryEngine interface {
	Len() int
	Index(id string) int
	QueryAllCtx(ctx context.Context, probes *brainprint.Matrix, k, parallelism int) ([][]brainprint.GalleryCandidate, error)
	SetANNProbe(nprobe int) error
}

// openQueryEngine opens any gallery database — single file, shard
// manifest, or live directory — for querying.
func openQueryEngine(path string, out io.Writer) (queryEngine, func(), error) {
	if isLiveDir(path) {
		e, err := brainprint.OpenLiveGallery(path, brainprint.LiveGalleryOptions{})
		if err != nil {
			return nil, nil, err
		}
		return e, func() { e.Close() }, nil
	}
	g, err := openStore(path, out)
	if err != nil {
		return nil, nil, err
	}
	return g, func() {}, nil
}

// galleryQuery attacks a probe session against an enrolled gallery,
// sharded store, or live directory.
func galleryQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint gallery query", flag.ContinueOnError)
	var cf cohortFlags
	cf.register(fs)
	db := fs.String("db", "", "gallery file, shard manifest, or live directory to query (required)")
	k := fs.Int("k", 5, "candidates to report per probe")
	ann := fs.Bool("ann", false, "scan through the IVF coarse index at the default fan-out (requires a `gallery index` sidecar)")
	nprobe := fs.Int("nprobe", 0, "IVF cells to probe per query (implies -ann; 0 with -ann = the default fan-out)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("gallery query: -db is required")
	}
	if *nprobe < 0 {
		return fmt.Errorf("gallery query: -nprobe %d must be non-negative", *nprobe)
	}
	g, done, err := openQueryEngine(*db, out)
	if err != nil {
		return err
	}
	defer done()
	if *ann || *nprobe > 0 {
		np := *nprobe
		if np == 0 {
			np = brainprint.DefaultNProbe
		}
		if err := g.SetANNProbe(np); err != nil {
			return fmt.Errorf("gallery query: -ann: %w", err)
		}
	}
	ids, probes, err := cf.buildGroup()
	if err != nil {
		return err
	}
	ranked, err := g.QueryAllCtx(context.Background(), probes, *k, cf.parallelism)
	if err != nil {
		return err
	}

	enrolled, top1, topk := 0, 0, 0
	for j, top := range ranked {
		var row strings.Builder
		fmt.Fprintf(&row, "probe %-12s", ids[j])
		hit := g.Index(ids[j]) >= 0
		if hit {
			enrolled++
		}
		for r, cand := range top {
			marker := ""
			if cand.ID == ids[j] {
				marker = "*"
				topk++
				if r == 0 {
					top1++
				}
			}
			fmt.Fprintf(&row, "  %d) %s %.4f%s", r+1, cand.ID, cand.Score, marker)
		}
		fmt.Fprintln(out, row.String())
	}
	fmt.Fprintf(out, "\n%d probes against %d enrolled subjects (k=%d)\n", len(ranked), g.Len(), *k)
	if enrolled > 0 {
		fmt.Fprintf(out, "top-1: %d/%d (%.1f%%)   top-%d: %d/%d (%.1f%%)\n",
			top1, enrolled, 100*float64(top1)/float64(enrolled),
			*k, topk, enrolled, 100*float64(topk)/float64(enrolled))
	} else {
		fmt.Fprintln(out, "no probe IDs are enrolled; accuracy not applicable")
	}
	return nil
}

// galleryProbe emits one cohort subject's probe as an identify-request
// JSON document, ready to POST to the serve subcommand's /v1/identify:
//
//	brainprint gallery probe -task REST2 -encoding RL -subject 3 |
//	    curl -s -X POST --data @- localhost:7311/v1/identify
//
// The probe is a raw connectome vector; galleries enrolled with a
// feature index project it server-side, so enroll and probe only need
// to agree on the cohort parameters (-scale/-subjects/-regions/-seed).
func galleryProbe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint gallery probe", flag.ContinueOnError)
	var cf cohortFlags
	cf.register(fs)
	subject := fs.Int("subject", 0, "cohort subject index to emit")
	k := fs.Int("k", 0, "candidate count to request (0 = server default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *subject < 0 {
		return fmt.Errorf("gallery probe: -subject %d must be non-negative", *subject)
	}
	ids, group, err := cf.buildGroup()
	if err != nil {
		return err
	}
	if *subject >= len(ids) {
		return fmt.Errorf("gallery probe: -subject %d out of range (cohort has %d subjects)", *subject, len(ids))
	}
	req := struct {
		ID    string    `json:"id"`
		Probe []float64 `json:"probe"`
		K     int       `json:"k,omitempty"`
	}{ID: ids[*subject], Probe: group.Col(*subject), K: *k}
	enc := json.NewEncoder(out)
	return enc.Encode(req)
}

// galleryInfo prints the metadata and per-shard health of a gallery
// database. For sharded stores each shard reports its record count,
// size, and checksum status; a faulted shard (missing file, CRC
// failure, manifest↔shard dims mismatch) is flagged with its typed
// diagnosis instead of aborting the whole inspection with a raw decode
// error.
func galleryInfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint gallery info", flag.ContinueOnError)
	db := fs.String("db", "", "gallery file or shard manifest to inspect (required)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("gallery info: -db is required")
	}
	if isLiveDir(*db) {
		return liveInfo(*db, out)
	}
	g, err := brainprint.OpenGalleryStore(*db)
	if err != nil && !errors.Is(err, brainprint.ErrGalleryPartial) {
		return err
	}
	fmt.Fprintf(out, "gallery %s\n", *db)
	if g.HasManifest() {
		fmt.Fprintf(out, "  layout:         %d shard(s) (manifest version %d, shard format version %d)\n",
			g.Shards(), brainprint.GalleryManifestVersion, brainprint.GalleryFormatVersion)
	} else {
		fmt.Fprintf(out, "  layout:         single file (format version %d)\n", brainprint.GalleryFormatVersion)
	}
	if d := g.Defense(); d != nil {
		fmt.Fprintf(out, "  defense:        %s\n", d)
	}
	if g.HasANNIndex() {
		fmt.Fprintf(out, "  ann index:      IVF sidecar, %d cells (queries scan exactly unless -ann/-nprobe)\n",
			g.ANNIndex().Cells())
	}
	stats := g.Stats()
	var bytes int64
	loaded := 0
	for _, st := range stats {
		if st.Loaded {
			bytes += st.Meta.Bytes
			loaded++
		}
	}
	fmt.Fprintf(out, "  data on disk:   %d bytes across %d of %d shard file(s)\n", bytes, loaded, len(stats))
	fmt.Fprintf(out, "  subjects:       %d", g.Len())
	if g.LoadedShards() < g.Shards() {
		fmt.Fprintf(out, " (loaded shards only; %d shard(s) unavailable)", g.Shards()-g.LoadedShards())
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  features:       %d\n", g.Features())
	if idx := g.FeatureIndex(); idx != nil {
		fmt.Fprintf(out, "  feature index:  %d raw-space rows (probes may be full connectome vectors)\n", len(idx))
	} else {
		fmt.Fprintf(out, "  feature index:  none (probes must be gallery-space vectors)\n")
	}
	if len(stats) > 1 {
		fmt.Fprintf(out, "  shards:\n")
		for i, st := range stats {
			switch {
			case st.Loaded:
				fmt.Fprintf(out, "    [%d] %-16s %5d records  %8d bytes  checksum ok\n",
					i, st.Meta.Name, st.Meta.Records, st.Meta.Bytes)
			default:
				fmt.Fprintf(out, "    [%d] %-16s FAULT: %v\n", i, st.Meta.Name, st.Err)
			}
		}
	}
	if g.Len() > 0 {
		n := min(g.Len(), 5)
		fmt.Fprintf(out, "  first subjects: %s", strings.Join(g.IDs()[:n], ", "))
		if g.Len() > n {
			fmt.Fprintf(out, ", … (%d more)", g.Len()-n)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// liveInfo prints the metadata and mutation/compaction counters of a
// live gallery directory.
func liveInfo(dir string, out io.Writer) error {
	e, err := brainprint.OpenLiveGallery(dir, brainprint.LiveGalleryOptions{})
	if err != nil {
		return err
	}
	defer e.Close()
	st := e.Stats()
	fmt.Fprintf(out, "gallery %s\n", dir)
	fmt.Fprintf(out, "  layout:         live directory (generation %d, WAL version %d)\n",
		st.Generation, brainprint.GalleryWALVersion)
	fmt.Fprintf(out, "  subjects:       %d (%d base, %d overlay, %d tombstones pending)\n",
		e.Len(), st.BaseRecords, st.MemRecords, st.Tombstones)
	fmt.Fprintf(out, "  features:       %d\n", e.Features())
	if d := e.Defense(); d != nil {
		fmt.Fprintf(out, "  defense:        %s (applied at every compaction)\n", d)
	}
	if idx := e.FeatureIndex(); idx != nil {
		fmt.Fprintf(out, "  feature index:  %d raw-space rows (probes may be full connectome vectors)\n", len(idx))
	} else {
		fmt.Fprintf(out, "  feature index:  none (probes must be gallery-space vectors)\n")
	}
	if e.HasANNIndex() {
		fmt.Fprintf(out, "  ann index:      IVF sidecar on the base store (queries scan exactly unless -ann/-nprobe)\n")
	}
	fmt.Fprintf(out, "  write-ahead log: %d records, %d bytes\n", st.WALRecords, st.WALBytes)
	fmt.Fprintf(out, "  sequence:       %d (current generation starts after %d)\n", st.Seq, st.BaseSeq)
	if st.RecoveredTornBytes > 0 {
		fmt.Fprintf(out, "  recovery:       truncated a torn log tail (%d bytes) at open\n", st.RecoveredTornBytes)
	}
	if e.Len() > 0 {
		ids := e.IDs()
		n := min(len(ids), 5)
		fmt.Fprintf(out, "  first subjects: %s", strings.Join(ids[:n], ", "))
		if len(ids) > n {
			fmt.Fprintf(out, ", … (%d more)", len(ids)-n)
		}
		fmt.Fprintln(out)
	}
	return nil
}
