package synth

import (
	"fmt"
	"math"
	"math/rand"

	"brainprint/internal/connectome"
	"brainprint/internal/linalg"
	"brainprint/internal/sampling"
	"brainprint/internal/signal"
	"brainprint/internal/stats"
)

// HCPParams configures the HCP-like cohort generator. The zero value is
// not usable; start from DefaultHCPParams.
type HCPParams struct {
	Subjects      int     // number of subjects (paper: 100 unrelated)
	Regions       int     // atlas regions (paper: 360 ⇒ 64620 features)
	LatentFactors int     // latent networks K
	RestFrames    int     // time points per resting scan
	TaskFrames    int     // time points per task scan
	TR            float64 // sampling interval, seconds (HCP: 0.72)

	SubjectVariation  float64 // δ: fingerprint strength
	TaskVariation     float64 // γ: task loading shift
	EncodingVariation float64 // ν: per-scan session/encoding jitter
	ObsNoise          float64 // additive observation noise std
	ActivationAmp     float64 // task activation amplitude
	LatentSmoothness  float64 // AR(1) coefficient of latent time courses

	// Expression holds the per-task signature expression level e_task;
	// nil selects DefaultExpression.
	Expression map[Task]float64

	// PerformanceEdges is the number of connectome edges that determine
	// the synthetic task-performance score.
	PerformanceEdges int
	// PerformanceNoise is the std of the score noise, in percent points.
	PerformanceNoise float64

	Seed int64
}

// DefaultHCPParams returns the reduced-scale parameterization used by
// tests and examples: 60 regions keeps connectomes small while the
// generative structure is identical to the paper-scale configuration
// (use PaperScaleHCPParams for that).
func DefaultHCPParams() HCPParams {
	return HCPParams{
		Subjects:          30,
		Regions:           60,
		LatentFactors:     15,
		RestFrames:        220,
		TaskFrames:        160,
		TR:                0.72,
		SubjectVariation:  0.35,
		TaskVariation:     0.70,
		EncodingVariation: 0.08,
		ObsNoise:          0.45,
		ActivationAmp:     0.9,
		LatentSmoothness:  0.55,
		PerformanceEdges:  50,
		PerformanceNoise:  1.0,
		Seed:              1,
	}
}

// PaperScaleHCPParams returns the full paper-scale configuration:
// 100 subjects on a 360-region atlas (64620 connectome features), with
// the session jitter raised so the clean resting-state identification
// accuracy lands near the paper's ≈94% (rather than a too-easy 100%)
// and the Table 2 noise sweep shows visible decay.
func PaperScaleHCPParams() HCPParams {
	p := DefaultHCPParams()
	p.Subjects = 100
	p.Regions = 360
	p.RestFrames = 400
	p.TaskFrames = 250
	p.EncodingVariation = 0.30
	// A lower task-loading shift than the test-scale default keeps the
	// individual signature more context-free, so de-anonymizing one
	// condition leaks others (the Figure 5 off-diagonals) while the
	// activation component still separates task clusters for Figure 6.
	p.TaskVariation = 0.45
	p.Expression = PaperScaleExpression()
	return p
}

// Validate checks the parameters for internal consistency.
func (p HCPParams) Validate() error {
	switch {
	case p.Subjects <= 1:
		return fmt.Errorf("synth: need at least 2 subjects, got %d", p.Subjects)
	case p.Regions < 4:
		return fmt.Errorf("synth: need at least 4 regions, got %d", p.Regions)
	case p.LatentFactors < 2:
		return fmt.Errorf("synth: need at least 2 latent factors, got %d", p.LatentFactors)
	case p.RestFrames < 8 || p.TaskFrames < 8:
		return fmt.Errorf("synth: need at least 8 frames, got rest=%d task=%d", p.RestFrames, p.TaskFrames)
	case p.TR <= 0:
		return fmt.Errorf("synth: nonpositive TR %v", p.TR)
	case p.LatentSmoothness < 0 || p.LatentSmoothness >= 1:
		return fmt.Errorf("synth: AR(1) coefficient %v out of [0,1)", p.LatentSmoothness)
	}
	return nil
}

// Scan is one synthetic acquisition: the region×time series of a subject
// performing a condition under a phase encoding.
type Scan struct {
	Subject  int
	Task     Task
	Encoding Encoding
	TR       float64
	Series   *linalg.Matrix // regions × time
}

// ScoreEdge is one connectome edge contributing to a synthetic
// performance score, with its weight in the generating functional.
// Exposing the ground truth supports diagnostics and the paper's
// defense discussion (targeted noise on signature-bearing edges).
type ScoreEdge struct {
	I, J   int
	Weight float64
}

// HCPCohort is a generated HCP-like dataset: every subject scanned for
// every condition under both encodings, plus per-subject task
// performance scores for the tasks of Table 1.
type HCPCohort struct {
	Params HCPParams
	Scans  []*Scan
	// Performance[task][subject] is the synthetic accuracy (percent) of
	// the subject on the task; only PerformanceTasks are present.
	Performance map[Task][]float64
	// ScoreEdges records the ground-truth edges and weights behind each
	// performance score.
	ScoreEdges map[Task][]ScoreEdge

	index map[scanKey]*Scan
}

type scanKey struct {
	subject  int
	task     Task
	encoding Encoding
}

// GenerateHCP builds the cohort. Generation is deterministic in
// p.Seed.
func GenerateHCP(p HCPParams) (*HCPCohort, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Expression == nil {
		p.Expression = DefaultExpression()
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n, k := p.Regions, p.LatentFactors

	// Population, task and subject loading matrices.
	lpop := gaussianMatrix(rng, n, k, 1/math.Sqrt(float64(k)))
	taskShift := make([]*linalg.Matrix, numComponents)
	for c := range taskShift {
		taskShift[c] = gaussianMatrix(rng, n, k, p.TaskVariation/math.Sqrt(float64(k)))
	}
	subjects := make([]*linalg.Matrix, p.Subjects)
	for s := range subjects {
		subjects[s] = gaussianMatrix(rng, n, k, p.SubjectVariation/math.Sqrt(float64(k)))
	}

	// Task activation profiles: each task drives a contiguous band of
	// regions (a crude "lobe") with positive weights.
	activation := make([][]float64, numComponents)
	for c := 1; c < numComponents; c++ {
		prof := make([]float64, n)
		bandLen := n / 4
		start := rng.Intn(n - bandLen)
		for i := start; i < start+bandLen; i++ {
			prof[i] = 0.5 + rng.Float64()
		}
		activation[c] = prof
	}

	cohort := &HCPCohort{
		Params:      p,
		Performance: make(map[Task][]float64),
		ScoreEdges:  make(map[Task][]ScoreEdge),
		index:       make(map[scanKey]*Scan),
	}

	hrf := signal.CanonicalHRF()
	for s := 0; s < p.Subjects; s++ {
		for _, task := range AllTasks {
			for _, enc := range []Encoding{LR, RL} {
				frames := p.TaskFrames
				if task.IsRest() {
					frames = p.RestFrames
				}
				series, err := p.generateScan(rng, lpop, taskShift, subjects[s], activation, task, frames, hrf)
				if err != nil {
					return nil, err
				}
				scan := &Scan{Subject: s, Task: task, Encoding: enc, TR: p.TR, Series: series}
				cohort.Scans = append(cohort.Scans, scan)
				cohort.index[scanKey{s, task, enc}] = scan
			}
		}
	}

	// Synthetic task performance: a linear functional of the subject's
	// measured task connectome, standardized across the cohort and
	// mapped onto a realistic accuracy range. The functional is the
	// leading principal direction of the highest-leverage connectome
	// features, which encodes the paper's empirical premise directly:
	// the individual signature features are the ones that carry
	// behaviourally meaningful information ("our signatures can be used
	// to predict the performance metrics", §3.3.3). Because the score is
	// (noisily) linear in measured connectome features, a linear SVR on
	// leverage-selected features can recover it — the Table 1 setting.
	for _, task := range PerformanceTasks {
		edges := p.PerformanceEdges
		if edges <= 0 {
			edges = 50
		}
		if maxEdges := n * (n - 1) / 2; edges > maxEdges {
			edges = maxEdges
		}
		// Measured group matrix of the task's L-R scans (the scans
		// Table 1 regresses on): features × subjects.
		group := linalg.NewMatrix(n*(n-1)/2, p.Subjects)
		for s := 0; s < p.Subjects; s++ {
			scan := cohort.index[scanKey{s, task, LR}]
			con, err := connectome.FromRegionSeries(scan.Series, connectome.Options{})
			if err != nil {
				return nil, err
			}
			group.SetCol(s, con.Vectorize())
		}
		featIdx, _, err := sampling.PrincipalFeatures(group, edges)
		if err != nil {
			return nil, err
		}
		sub := group.SelectRows(featIdx) // edges × subjects
		weights, err := leadingDirection(sub.T())
		if err != nil {
			return nil, err
		}
		used := make([]ScoreEdge, edges)
		raw := make([]float64, p.Subjects)
		for e := 0; e < edges; e++ {
			i, j, err := connectome.EdgeFromIndex(n, featIdx[e])
			if err != nil {
				return nil, err
			}
			used[e] = ScoreEdge{I: i, J: j, Weight: weights[e]}
			row := sub.RowView(e)
			for s := 0; s < p.Subjects; s++ {
				raw[s] += weights[e] * row[s]
			}
		}
		cohort.ScoreEdges[task] = used
		m, sd := stats.Mean(raw), stats.StdDev(raw)
		scores := make([]float64, p.Subjects)
		for s := range scores {
			z := 0.0
			if sd > 0 {
				z = (raw[s] - m) / sd
			}
			score := 82 + 8*z + p.PerformanceNoise*rng.NormFloat64()
			scores[s] = math.Max(40, math.Min(100, score))
		}
		cohort.Performance[task] = scores
	}
	return cohort, nil
}

// generateScan synthesizes one region×time series.
func (p HCPParams) generateScan(rng *rand.Rand, lpop *linalg.Matrix, taskShift []*linalg.Matrix,
	subject *linalg.Matrix, activation [][]float64, task Task, frames int, hrf signal.HRF) (*linalg.Matrix, error) {

	n, k := p.Regions, p.LatentFactors
	e := p.Expression[task]
	comp := task.componentIndex()

	// Mixing matrix for this scan.
	mix := linalg.NewMatrix(n, k)
	md := mix.RawData()
	ld := lpop.RawData()
	td := taskShift[comp].RawData()
	sd := subject.RawData()
	jitterScale := p.EncodingVariation / math.Sqrt(float64(k))
	for i := range md {
		md[i] = ld[i] + td[i] + e*sd[i] + jitterScale*rng.NormFloat64()
	}

	// Latent network time courses: AR(1) rows with unit marginal
	// variance.
	f := linalg.NewMatrix(k, frames)
	rho := p.LatentSmoothness
	innov := math.Sqrt(1 - rho*rho)
	for j := 0; j < k; j++ {
		row := f.RowView(j)
		row[0] = rng.NormFloat64()
		for t := 1; t < frames; t++ {
			row[t] = rho*row[t-1] + innov*rng.NormFloat64()
		}
	}

	x := mix.Mul(f)

	// Task activation: HRF-convolved block design added to the task's
	// activated regions.
	if !task.IsRest() && p.ActivationAmp > 0 {
		on, off := blockPeriod(task)
		design := signal.BlockDesign(frames, p.TR, on, off)
		resp, err := signal.ConvolveHRF(design, hrf, p.TR)
		if err != nil {
			return nil, err
		}
		prof := activation[comp]
		for i := 0; i < n; i++ {
			if prof[i] == 0 {
				continue
			}
			row := x.RowView(i)
			amp := p.ActivationAmp * prof[i]
			for t := range row {
				row[t] += amp * resp[t]
			}
		}
	}

	// Observation noise.
	if p.ObsNoise > 0 {
		xd := x.RawData()
		for i := range xd {
			xd[i] += p.ObsNoise * rng.NormFloat64()
		}
	}
	return x, nil
}

// Scan returns the scan of a subject for a condition and encoding, or an
// error if it does not exist.
func (c *HCPCohort) Scan(subject int, task Task, enc Encoding) (*Scan, error) {
	s, ok := c.index[scanKey{subject, task, enc}]
	if !ok {
		return nil, fmt.Errorf("synth: no scan for subject %d %v %v", subject, task, enc)
	}
	return s, nil
}

// ScansFor returns the scans of every subject (in subject order) for a
// condition and encoding.
func (c *HCPCohort) ScansFor(task Task, enc Encoding) ([]*Scan, error) {
	out := make([]*Scan, 0, c.Params.Subjects)
	for s := 0; s < c.Params.Subjects; s++ {
		scan, err := c.Scan(s, task, enc)
		if err != nil {
			return nil, err
		}
		out = append(out, scan)
	}
	return out, nil
}

// leadingDirection returns the first principal direction (unit vector)
// of the rows of x: the top eigenvector of the column-centred covariance.
func leadingDirection(x *linalg.Matrix) ([]float64, error) {
	rows, cols := x.Dims()
	centered := linalg.NewMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		col := x.Col(j)
		m := stats.Mean(col)
		for i := 0; i < rows; i++ {
			centered.Set(i, j, col[i]-m)
		}
	}
	eig, err := linalg.SymEigen(centered.Gram())
	if err != nil {
		return nil, err
	}
	return eig.Vectors.Col(0), nil
}

// gaussianMatrix returns an r×c matrix with iid N(0, scale²) entries.
func gaussianMatrix(rng *rand.Rand, r, c int, scale float64) *linalg.Matrix {
	m := linalg.NewMatrix(r, c)
	d := m.RawData()
	for i := range d {
		d[i] = scale * rng.NormFloat64()
	}
	return m
}
