// Package brainprint is a from-scratch Go reproduction of
// "De-anonymization Attacks on Neuroimaging Datasets" (Ravindra & Grama,
// SIGMOD 2021): it demonstrates that functional-MRI connectomes carry an
// individual-specific signature that lets an attacker holding one
// de-anonymized dataset re-identify the same subjects in any other
// anonymized dataset.
//
// The package is a facade over the implementation in internal/: it
// exposes the synthetic cohort generators that stand in for the HCP and
// ADHD-200 datasets (see DESIGN.md for the substitution argument), the
// three attacks (identity, task, and task-performance inference), the
// experiment drivers that regenerate every figure and table of the
// paper, and the voxel-level fMRI simulation + preprocessing pipeline.
//
// Quick start: the paper's experiments run by name under an attack
// configuration; the identification session over an enrolled gallery
// (NewAttacker, session.go) is the serving surface.
//
//	cohort, _ := brainprint.GenerateHCP(brainprint.DefaultHCPParams())
//	res, _ := brainprint.RunExperiment(ctx, "fig1", brainprint.DefaultAttackConfig(),
//		brainprint.ExperimentInput{HCP: cohort})
//	fmt.Println(res.Render())
package brainprint

import (
	"context"
	"math/rand"

	"brainprint/internal/connectome"
	"brainprint/internal/core"
	"brainprint/internal/defense"
	"brainprint/internal/experiments"
	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
	"brainprint/internal/match"
	"brainprint/internal/parallel"
	"brainprint/internal/sampling"
	"brainprint/internal/stats"
	"brainprint/internal/synth"
	"brainprint/internal/tsne"
)

// Matrix is the dense matrix type used throughout the library.
type Matrix = linalg.Matrix

// NewMatrix returns a zero-initialized r×c matrix.
func NewMatrix(r, c int) *Matrix { return linalg.NewMatrix(r, c) }

// ---- Parallel execution ----

// SetParallelism sets the process-wide default worker count of the
// parallel execution layer (internal/parallel), which every hot path —
// the linalg kernels, connectome construction, the similarity sweep and
// the experiment grids — runs on. n <= 0 restores the default of one
// worker per core; 1 pins the whole stack to serial.
//
// Per-call knobs (AttackConfig.Parallelism, ConnectomeOptions.
// Parallelism, the parallelism argument of SimilarityMatrix) override
// this default when positive. Results never depend on the setting:
// workers own disjoint output ranges, and randomized sweeps derive
// per-cell seeds from their root seed.
func SetParallelism(n int) { parallel.SetDefault(n) }

// SimilarityMatrix computes the known×anonymous Pearson correlation
// matrix between the columns (subjects) of two feature×subject group
// matrices — the attack's core all-pairs kernel. parallelism: 0 = all
// cores, 1 = serial, n = n workers; the matrix is identical at any
// setting.
func SimilarityMatrix(known, anon *Matrix, parallelism int) (*Matrix, error) {
	return match.SimilarityMatrixP(known, anon, parallelism)
}

// ---- Synthetic cohorts (the HCP / ADHD-200 stand-ins) ----

// Task identifies an HCP scan condition.
type Task = synth.Task

// HCP scan conditions.
const (
	Rest1         = synth.Rest1
	Rest2         = synth.Rest2
	Emotion       = synth.Emotion
	Gambling      = synth.Gambling
	Language      = synth.Language
	Motor         = synth.Motor
	Relational    = synth.Relational
	Social        = synth.Social
	WorkingMemory = synth.WorkingMemory
)

// Encoding is the phase-encoding direction of an HCP scan.
type Encoding = synth.Encoding

// Phase encodings.
const (
	LR = synth.LR
	RL = synth.RL
)

// Scan is one synthetic acquisition (region×time series).
type Scan = synth.Scan

// ADHDScan is one synthetic ADHD-like acquisition.
type ADHDScan = synth.ADHDScan

// ParseTask maps a task name (as printed by Task.String,
// case-insensitive) to its Task.
func ParseTask(s string) (Task, error) { return synth.ParseTask(s) }

// ParseEncoding maps "LR" or "RL" (case-insensitive) to its Encoding.
func ParseEncoding(s string) (Encoding, error) { return synth.ParseEncoding(s) }

// HCPParams configures the HCP-like cohort generator.
type HCPParams = synth.HCPParams

// HCPCohort is a generated HCP-like dataset.
type HCPCohort = synth.HCPCohort

// ADHDParams configures the ADHD-200-like cohort generator.
type ADHDParams = synth.ADHDParams

// ADHDCohort is a generated ADHD-200-like dataset.
type ADHDCohort = synth.ADHDCohort

// ADHDGroup is the diagnostic label of an ADHD-like subject.
type ADHDGroup = synth.ADHDGroup

// Diagnostic groups.
const (
	Control  = synth.Control
	Subtype1 = synth.Subtype1
	Subtype2 = synth.Subtype2
	Subtype3 = synth.Subtype3
)

// DefaultHCPParams returns the reduced-scale test configuration.
func DefaultHCPParams() HCPParams { return synth.DefaultHCPParams() }

// PaperScaleHCPParams returns the 100-subject, 360-region configuration
// matching the paper's dimensions (64620 connectome features).
func PaperScaleHCPParams() HCPParams { return synth.PaperScaleHCPParams() }

// DefaultADHDParams returns the reduced-scale test configuration.
func DefaultADHDParams() ADHDParams { return synth.DefaultADHDParams() }

// PaperScaleADHDParams returns the full ADHD-200-sized configuration.
func PaperScaleADHDParams() ADHDParams { return synth.PaperScaleADHDParams() }

// GenerateHCP builds an HCP-like cohort deterministically from the seed.
func GenerateHCP(p HCPParams) (*HCPCohort, error) { return synth.GenerateHCP(p) }

// GenerateADHD builds an ADHD-200-like cohort deterministically.
func GenerateADHD(p ADHDParams) (*ADHDCohort, error) { return synth.GenerateADHD(p) }

// ---- Connectomes and group matrices ----

// Connectome is a region×region functional correlation matrix.
type Connectome = connectome.Connectome

// ConnectomeOptions configures connectome construction.
type ConnectomeOptions = connectome.Options

// ConnectomeFromSeries computes the Pearson-correlation connectome of a
// regions×time series matrix.
func ConnectomeFromSeries(series *Matrix, opt ConnectomeOptions) (*Connectome, error) {
	return connectome.FromRegionSeries(series, opt)
}

// GroupMatrix stacks the vectorized connectomes of the scans into the
// features×subjects matrix the attack operates on. GroupMatrixCtx is
// the cancellable variant.
func GroupMatrix(scans []*Scan, opt ConnectomeOptions) (*Matrix, error) {
	return experiments.BuildGroupMatrix(context.Background(), scans, opt)
}

// GroupMatrixCtx is GroupMatrix under a context: construction aborts
// between scans once ctx is cancelled.
func GroupMatrixCtx(ctx context.Context, scans []*Scan, opt ConnectomeOptions) (*Matrix, error) {
	return experiments.BuildGroupMatrix(ctx, scans, opt)
}

// GroupMatrixADHD stacks the vectorized connectomes of ADHD-like scans
// into a features×subjects group matrix.
func GroupMatrixADHD(scans []*ADHDScan, opt ConnectomeOptions) (*Matrix, error) {
	return experiments.BuildGroupMatrixADHD(context.Background(), scans, opt)
}

// GroupMatrixADHDCtx is GroupMatrixADHD under a context.
func GroupMatrixADHDCtx(ctx context.Context, scans []*ADHDScan, opt ConnectomeOptions) (*Matrix, error) {
	return experiments.BuildGroupMatrixADHD(ctx, scans, opt)
}

// ---- Persistent fingerprint gallery ----

// Gallery is a persistent fingerprint database: enroll the
// de-anonymized subjects once (Enroll, EnrollMatrix) and save the
// z-scored fingerprints to disk (Save, WriteFile). It is storage only;
// attack anonymous probes through a GalleryStore over it
// (NewGalleryStore(g, 1), or OpenGalleryStore on the file), whose ranked
// top-k queries (TopK, QueryAll) never recompute fingerprints or
// materialize the full known×anonymous similarity matrix. Scores are
// bit-identical to SimilarityMatrix.
type Gallery = gallery.Gallery

// GalleryCandidate is one ranked identification hypothesis returned by
// a GalleryEngine's TopKCtx/QueryAllCtx.
type GalleryCandidate = gallery.Candidate

// GalleryFormatVersion is the gallery file format version this build
// reads and writes.
const GalleryFormatVersion = gallery.FormatVersion

// NewGallery returns an empty gallery for fingerprints with the given
// number of features.
func NewGallery(features int) *Gallery { return gallery.New(features) }

// NewGalleryIndexed returns an empty gallery over the given raw-space
// feature indices (typically from Fingerprints): raw connectome vectors
// are projected through the index on enrollment and query, and the
// index is persisted in the gallery file.
func NewGalleryIndexed(featureIndex []int) *Gallery { return gallery.WithFeatureIndex(featureIndex) }

// OpenGallery loads the gallery stored at path.
func OpenGallery(path string) (*Gallery, error) { return gallery.OpenFile(path) }

// EnrollGalleryFile appends new subjects to an existing gallery file
// without rewriting it and returns the updated gallery.
func EnrollGalleryFile(path string, ids []string, group *Matrix) (*Gallery, error) {
	return gallery.EnrollFile(path, ids, group)
}

// Fingerprints applies cfg's feature selection to a known group matrix
// and returns the reduced fingerprint matrix plus the selected feature
// indices — the enrollment half of Deanonymize. A nil index means the
// group was returned as-is (identity selection).
func Fingerprints(group *Matrix, cfg AttackConfig) (*Matrix, []int, error) {
	return core.Fingerprints(group, cfg)
}

// ---- The attacks ----

// SamplingMethod selects the feature-scoring distribution.
type SamplingMethod = sampling.Method

// Feature-sampling methods.
const (
	SamplingUniform  = sampling.Uniform
	SamplingL2Norm   = sampling.L2Norm
	SamplingLeverage = sampling.Leverage
)

// AttackConfig configures the identification attack.
type AttackConfig = core.AttackConfig

// AttackResult reports one de-anonymization run.
type AttackResult = core.AttackResult

// DefaultAttackConfig returns the paper's configuration: the top 100
// leverage-score features, selected deterministically.
func DefaultAttackConfig() AttackConfig { return core.DefaultAttackConfig() }

// Deanonymize matches the anonymous subjects (columns of anon) against
// the de-anonymized subjects (columns of known) in the principal
// features subspace of the known group.
func Deanonymize(known, anon *Matrix, cfg AttackConfig) (*AttackResult, error) {
	return core.Deanonymize(known, anon, cfg)
}

// TSNEConfig configures the t-SNE embedding.
type TSNEConfig = tsne.Config

// TaskPredictConfig configures the task-prediction attack.
type TaskPredictConfig = core.TaskPredictConfig

// TaskPredictResult reports one task-prediction run.
type TaskPredictResult = core.TaskPredictResult

// TaskPredict embeds scans with t-SNE and labels anonymous scans by
// their nearest known neighbour.
func TaskPredict(points *Matrix, labels []int, known []bool, cfg TaskPredictConfig) (*TaskPredictResult, error) {
	return core.TaskPredict(points, labels, known, cfg)
}

// PerformanceConfig configures the performance-prediction attack.
type PerformanceConfig = core.PerformanceConfig

// PerformanceResult reports the nRMSE of performance prediction.
type PerformanceResult = core.PerformanceResult

// DefaultPerformanceConfig returns a paper-shaped configuration.
func DefaultPerformanceConfig() PerformanceConfig { return core.DefaultPerformanceConfig() }

// PerformancePredict regresses per-subject scores on leverage-selected
// connectome features over repeated train/test splits.
func PerformancePredict(group *Matrix, scores []float64, cfg PerformanceConfig) (*PerformanceResult, error) {
	return core.PerformancePredict(group, scores, cfg)
}

// LeverageScores returns the leverage score of every row of the matrix.
func LeverageScores(a *Matrix) ([]float64, error) { return sampling.LeverageScores(a) }

// OptimalAssignment solves the maximum-total-similarity one-to-one
// matching between known and anonymous subjects (Hungarian algorithm) —
// a strengthening of the paper's independent per-subject argmax that
// applies when the attacker knows both datasets cover the same
// population.
func OptimalAssignment(sim *Matrix) ([]int, error) { return match.AssignmentMatch(sim) }

// OptimalAssignmentAccuracy returns the identification accuracy of the
// optimal assignment (truth nil = aligned datasets).
func OptimalAssignmentAccuracy(sim *Matrix, truth []int) (float64, error) {
	return match.AssignmentAccuracy(sim, truth)
}

// Summary is a mean ± standard-deviation pair.
type Summary = stats.Summary

// ---- Experiment drivers (one per paper figure/table) ----

// SimilarityResult is the outcome of a pairwise-similarity experiment.
type SimilarityResult = experiments.SimilarityResult

// CrossTaskResult is the Figure 5 cross-task accuracy matrix.
type CrossTaskResult = experiments.CrossTaskResult

// TaskClusterResult is the Figure 6 t-SNE clustering outcome.
type TaskClusterResult = experiments.TaskClusterResult

// Table1Result holds the per-task performance-prediction errors.
type Table1Result = experiments.Table1Result

// Figure9Result is the ADHD full-cohort result with transfer accuracy.
type Figure9Result = experiments.Figure9Result

// Table2Result holds the multi-site noise sweep.
type Table2Result = experiments.Table2Result

// ExperimentInput carries the cohorts and sweep parameters of one
// RunExperiment call; zero values mean the documented defaults.
type ExperimentInput = experiments.Input

// ExperimentResult is the structured outcome of an experiment; Render
// prints the paper's artifact as text.
type ExperimentResult = experiments.Result

// ExperimentSpec describes one registered experiment: its CLI name,
// one-line synopsis, and which cohorts it needs. The CLI's usage text
// and dispatch both derive from this registry.
type ExperimentSpec = experiments.Experiment

// RunExperiment runs one registered paper experiment by name under the
// attack configuration cfg (feature budget, selection method,
// parallelism). Unknown names list the valid ones; a cancelled context
// aborts the sweep between grid cells and surfaces ctx.Err().
func RunExperiment(ctx context.Context, name string, cfg AttackConfig, in ExperimentInput) (ExperimentResult, error) {
	return experiments.Run(ctx, name, cfg, in)
}

// Experiments returns every registered experiment in canonical "all"
// order.
func Experiments() []ExperimentSpec { return experiments.Experiments() }

// ExperimentNames returns the registered experiment names in canonical
// order — the single source of the CLI's experiment list.
func ExperimentNames() []string { return experiments.Names() }

// LookupExperiment returns the experiment registered under name.
func LookupExperiment(name string) (ExperimentSpec, bool) { return experiments.Find(name) }

// ---- Defense (§4) ----

// DefenseStrategy selects where a publisher spends the noise budget.
type DefenseStrategy = defense.Strategy

// Defense strategies.
const (
	DefenseTargeted = defense.Targeted
	DefenseUniform  = defense.Uniform
)

// DefenseProtectResult reports one protection run.
type DefenseProtectResult = defense.Result

// Protect perturbs a to-be-released group matrix with the chosen
// strategy, spending the same total distortion budget either on the
// top-leverage signature features (targeted) or uniformly.
func Protect(group *Matrix, strategy DefenseStrategy, topFeatures int, sigma float64, rng *rand.Rand) (*DefenseProtectResult, error) {
	return defense.Protect(group, strategy, topFeatures, sigma, rng)
}

// DefenseResult is the privacy/utility sweep of the §4 defense.
type DefenseResult = experiments.DefenseResult
