package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"brainprint/internal/defense"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
	"brainprint/internal/report"
)

// The gallery defense sweep: the attack/defense arms race measured at
// the gallery layer. A steward enrolls a synthetic cohort, anonymizes
// the gallery through a transform pipeline (internal/defense), and the
// attacker re-runs the paper's identification attack against the
// defended release. Each cell of the kind × strength grid reports the
// privacy outcomes (top-1/top-k attack accuracy and the percentage of
// the population still uniquely re-identifiable) next to the utility
// outcomes (task-prediction accuracy on the defended vectors and the
// aggregate-query error against the undefended gallery) — the
// percentage-of-vulnerable-population framing of the
// Narayanan–Shmatikov robustness analysis applied to fingerprint
// galleries.

// Gallery defense sweep defaults, shared by the CLI subcommand and the
// attacker registry entry so both run the acceptance-grade sweep.
const (
	// DefaultGalleryDefenseSubjects is the synthetic cohort size.
	DefaultGalleryDefenseSubjects = 1000
	// DefaultGalleryDefenseFeatures is the fingerprint dimensionality.
	DefaultGalleryDefenseFeatures = 96
	// DefaultGalleryDefenseClusters is the latent task-cluster count
	// (also the task-label alphabet of the utility metric).
	DefaultGalleryDefenseClusters = 8
	// DefaultGalleryDefenseTopK is the ranked list depth of the top-k
	// accuracy column.
	DefaultGalleryDefenseTopK = 5
)

// DefaultGalleryDefenseKSameKs returns the k-same strength grid the
// sweep falls back to (a fresh slice per call).
func DefaultGalleryDefenseKSameKs() []int { return []int{2, 5, 10} }

// DefaultGalleryDefenseEpsilons returns the DP-noise ε grid the sweep
// falls back to, strongest last (a fresh slice per call).
func DefaultGalleryDefenseEpsilons() []float64 { return []float64{20, 8, 2} }

// GalleryDefenseConfig parameterizes one gallery defense sweep.
type GalleryDefenseConfig struct {
	// Subjects is the cohort size (default 1000).
	Subjects int
	// Features is the fingerprint dimensionality (default 96).
	Features int
	// Clusters is the latent cluster / task-label count (default 8).
	Clusters int
	// TopK is the ranked list depth of the top-k column (default 5,
	// min 2 — the unique-match test needs a runner-up).
	TopK int
	// KSameKs is the k-same strength grid (default 2, 5, 10; empty
	// slice plus SkipKSame false means the default).
	KSameKs []int
	// Epsilons is the gaussian DP-noise ε grid (default 20, 8, 2).
	Epsilons []float64
	// Parallelism is the worker knob (0 = all cores); results are
	// bit-identical at any setting.
	Parallelism int
	// Seed drives cohort generation and probe noise.
	Seed int64
}

// withDefaults resolves zero values.
func (c GalleryDefenseConfig) withDefaults() GalleryDefenseConfig {
	if c.Subjects <= 0 {
		c.Subjects = DefaultGalleryDefenseSubjects
	}
	if c.Features <= 0 {
		c.Features = DefaultGalleryDefenseFeatures
	}
	if c.Clusters <= 0 {
		c.Clusters = DefaultGalleryDefenseClusters
	}
	if c.TopK < 2 {
		c.TopK = DefaultGalleryDefenseTopK
	}
	if len(c.KSameKs) == 0 {
		c.KSameKs = DefaultGalleryDefenseKSameKs()
	}
	if len(c.Epsilons) == 0 {
		c.Epsilons = DefaultGalleryDefenseEpsilons()
	}
	return c
}

// GalleryDefenseRow is one cell of the sweep: a defense pipeline with
// its privacy and utility outcomes.
type GalleryDefenseRow struct {
	// Kind names the transform family ("none" for the undefended
	// baseline, else "ksame" or "noise").
	Kind string
	// Strength is the cell's position on the kind's "more is stronger"
	// axis: k for k-same, 1/ε for noise, 0 for the baseline.
	Strength float64
	// Descriptor is the pipeline's textual spec.
	Descriptor string
	// Top1 is the attacker's top-1 identification accuracy (privacy:
	// lower is better for the steward).
	Top1 float64
	// TopK is the fraction of probes whose true subject appears in the
	// ranked top-k.
	TopK float64
	// Vulnerable is the percentage-of-vulnerable-population: the
	// fraction of probes whose top match is both correct and strictly
	// unique (no score tie with the runner-up) — the records k-anonymity
	// failed to hide.
	Vulnerable float64
	// TaskAcc is the nearest-centroid task-prediction accuracy on the
	// defended gallery vectors (utility: higher is better).
	TaskAcc float64
	// AggErr is the RMSE of the per-feature population means between
	// the defended and undefended galleries — the aggregate-query error
	// a cohort-statistics consumer pays.
	AggErr float64
}

// GalleryDefenseResult is the full kind × strength sweep.
type GalleryDefenseResult struct {
	// Config echoes the resolved sweep configuration.
	Config GalleryDefenseConfig
	// Rows holds the undefended baseline first, then each defense kind
	// in ascending strength.
	Rows []GalleryDefenseRow
}

// Render prints the sweep as a table.
func (r *GalleryDefenseResult) Render() string {
	headers := []string{"defense", "strength",
		"top-1 (privacy)", fmt.Sprintf("top-%d", r.Config.TopK),
		"vulnerable", "task-acc (utility)", "agg-err"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Descriptor,
			fmt.Sprintf("%.2f", row.Strength),
			report.Percent(row.Top1),
			report.Percent(row.TopK),
			report.Percent(row.Vulnerable),
			report.Percent(row.TaskAcc),
			fmt.Sprintf("%.4f", row.AggErr),
		})
	}
	return fmt.Sprintf("Gallery defense sweep: %d subjects, %d features, attack vs utility per pipeline\n",
		r.Config.Subjects, r.Config.Features) + report.Table(headers, rows)
}

// GalleryDefenseSweep runs the attack-vs-utility sweep: it enrolls a
// seeded synthetic cohort, re-scans every subject as a noisy probe,
// and for the undefended baseline plus every (kind, strength) cell
// applies the pipeline with defense.Apply and attacks the defended
// gallery with ranked top-k queries. Cells fan out in parallel with
// per-cell derived determinism: results are bit-identical at any
// Parallelism setting.
func GalleryDefenseSweep(ctx context.Context, cfg GalleryDefenseConfig) (*GalleryDefenseResult, error) {
	cfg = cfg.withDefaults()
	base, probes, labels, err := synthGalleryCohort(cfg)
	if err != nil {
		return nil, err
	}
	baseMeans := columnMeans(base)

	type cell struct {
		kind     string
		strength float64
		desc     *defense.Descriptor
	}
	cells := []cell{{kind: "none"}}
	for _, k := range cfg.KSameKs {
		cells = append(cells, cell{
			kind: "ksame", strength: float64(k),
			desc: &defense.Descriptor{Steps: []defense.Step{{Kind: defense.KindKSame, K: k}}},
		})
	}
	for _, eps := range cfg.Epsilons {
		cells = append(cells, cell{
			kind: "noise", strength: 1 / eps,
			desc: &defense.Descriptor{Steps: []defense.Step{{
				Kind: defense.KindNoise, Mechanism: defense.Gaussian, Epsilon: eps, Seed: cfg.Seed,
			}}},
		})
	}

	// Whole cells fan out; everything inside a cell runs serial so the
	// outer loop owns the parallelism (the same shape as DefenseSweep).
	rows := make([]GalleryDefenseRow, len(cells))
	err = parallel.ForCtx(ctx, cfg.Parallelism, len(cells), 1, func(lo, hi int) error {
		for ci := lo; ci < hi; ci++ {
			c := cells[ci]
			defended, err := defense.Apply(base, c.desc, 1)
			if err != nil {
				return err
			}
			row := GalleryDefenseRow{Kind: c.kind, Strength: c.strength, Descriptor: c.desc.String()}
			ranked, err := shard.Wrap(defended).QueryAllCtx(ctx, probes, cfg.TopK, 1)
			if err != nil {
				return err
			}
			for pi, cands := range ranked {
				want := defended.ID(pi)
				if len(cands) > 0 && cands[0].ID == want {
					row.Top1++
					if len(cands) > 1 && cands[0].Score > cands[1].Score {
						row.Vulnerable++
					}
				}
				for _, cand := range cands {
					if cand.ID == want {
						row.TopK++
						break
					}
				}
			}
			n := float64(len(ranked))
			row.Top1 /= n
			row.TopK /= n
			row.Vulnerable /= n
			row.TaskAcc = nearestCentroidAccuracy(defended, labels, cfg.Clusters)
			row.AggErr = meansRMSE(baseMeans, columnMeans(defended))
			rows[ci] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &GalleryDefenseResult{Config: cfg, Rows: rows}, nil
}

// synthGalleryCohort generates the seeded cohort: each subject's
// fingerprint is its cluster center plus an individual signature, the
// probe a noisy re-scan of it, the task label the cluster. Probes line
// up column pi ↔ enrollment index pi. Generation is serial from one
// RNG, so the cohort is a function of the config alone.
func synthGalleryCohort(cfg GalleryDefenseConfig) (*gallery.Gallery, *linalg.Matrix, []int, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := make([][]float64, cfg.Clusters)
	for c := range centers {
		centers[c] = make([]float64, cfg.Features)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64()
		}
	}
	g := gallery.New(cfg.Features)
	probes := linalg.NewMatrix(cfg.Features, cfg.Subjects)
	labels := make([]int, cfg.Subjects)
	raw := make([]float64, cfg.Features)
	probe := make([]float64, cfg.Features)
	for i := 0; i < cfg.Subjects; i++ {
		labels[i] = i % cfg.Clusters
		center := centers[labels[i]]
		for j := range raw {
			raw[j] = center[j] + 0.8*rng.NormFloat64()
		}
		for j := range probe {
			probe[j] = raw[j] + 0.6*rng.NormFloat64()
		}
		if err := g.Enroll(fmt.Sprintf("sub-%04d", i), raw); err != nil {
			return nil, nil, nil, err
		}
		probes.SetCol(i, probe)
	}
	return g, probes, labels, nil
}

// columnMeans returns the per-feature population mean of a gallery's
// stored vectors — the aggregate a cohort-statistics query reads.
func columnMeans(g *gallery.Gallery) []float64 {
	f := g.Features()
	means := make([]float64, f)
	for i := 0; i < g.Len(); i++ {
		v := g.Fingerprint(i)
		for j, x := range v {
			means[j] += x
		}
	}
	inv := 1 / float64(g.Len())
	for j := range means {
		means[j] *= inv
	}
	return means
}

// meansRMSE is the root-mean-square difference of two per-feature mean
// vectors.
func meansRMSE(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}

// nearestCentroidAccuracy measures task utility on the defended
// vectors: per-label centroids are estimated from the defended gallery
// itself, every subject is classified to the nearest centroid
// (squared-Euclidean, ties to the lower label), and the fraction of
// correct labels is returned. Deterministic — no RNG, no parallelism.
func nearestCentroidAccuracy(g *gallery.Gallery, labels []int, clusters int) float64 {
	f := g.Features()
	centroids := make([][]float64, clusters)
	counts := make([]int, clusters)
	for c := range centroids {
		centroids[c] = make([]float64, f)
	}
	for i := 0; i < g.Len(); i++ {
		c := labels[i]
		counts[c]++
		for j, x := range g.Fingerprint(i) {
			centroids[c][j] += x
		}
	}
	for c := range centroids {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for j := range centroids[c] {
			centroids[c][j] *= inv
		}
	}
	correct := 0
	for i := 0; i < g.Len(); i++ {
		v := g.Fingerprint(i)
		best, bestD := -1, math.Inf(1)
		for c := range centroids {
			if counts[c] == 0 {
				continue
			}
			var d float64
			for j, x := range v {
				dx := x - centroids[c][j]
				d += dx * dx
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(g.Len())
}

// MonotoneByStrength checks the sweep's gate invariant: within each
// defense kind, attack top-1 accuracy must be non-increasing as
// strength increases, and every defended cell must sit at or below the
// undefended baseline. It returns the violations in rendering order
// (empty = the invariant holds).
func (r *GalleryDefenseResult) MonotoneByStrength() []string {
	var baseline float64
	haveBaseline := false
	for _, row := range r.Rows {
		if row.Kind == "none" {
			baseline, haveBaseline = row.Top1, true
		}
	}
	byKind := map[string][]GalleryDefenseRow{}
	var kinds []string
	for _, row := range r.Rows {
		if row.Kind == "none" {
			continue
		}
		if _, ok := byKind[row.Kind]; !ok {
			kinds = append(kinds, row.Kind)
		}
		byKind[row.Kind] = append(byKind[row.Kind], row)
	}
	sort.Strings(kinds)
	var violations []string
	for _, kind := range kinds {
		rows := byKind[kind]
		sort.Slice(rows, func(a, b int) bool { return rows[a].Strength < rows[b].Strength })
		for i, row := range rows {
			if haveBaseline && row.Top1 > baseline {
				violations = append(violations, fmt.Sprintf(
					"%s: top-1 %.4f above the undefended baseline %.4f", row.Descriptor, row.Top1, baseline))
			}
			if i > 0 && row.Top1 > rows[i-1].Top1 {
				violations = append(violations, fmt.Sprintf(
					"%s: top-1 %.4f above weaker cell %s (%.4f)", row.Descriptor, row.Top1, rows[i-1].Descriptor, rows[i-1].Top1))
			}
		}
	}
	return violations
}
