package synth

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"brainprint/internal/connectome"
	"brainprint/internal/stats"
)

func smallHCP(t *testing.T) *HCPCohort {
	t.Helper()
	p := DefaultHCPParams()
	p.Subjects = 12
	p.Regions = 40
	p.RestFrames = 160
	p.TaskFrames = 120
	c, err := GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	return c
}

func connVec(t *testing.T, s *Scan) []float64 {
	t.Helper()
	c, err := connectome.FromRegionSeries(s.Series, connectome.Options{})
	if err != nil {
		t.Fatalf("FromRegionSeries: %v", err)
	}
	return c.Vectorize()
}

func TestHCPParamsValidate(t *testing.T) {
	cases := []func(*HCPParams){
		func(p *HCPParams) { p.Subjects = 1 },
		func(p *HCPParams) { p.Regions = 2 },
		func(p *HCPParams) { p.LatentFactors = 1 },
		func(p *HCPParams) { p.RestFrames = 2 },
		func(p *HCPParams) { p.TR = 0 },
		func(p *HCPParams) { p.LatentSmoothness = 1 },
	}
	for i, mutate := range cases {
		p := DefaultHCPParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultHCPParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestGenerateHCPShape(t *testing.T) {
	c := smallHCP(t)
	wantScans := 12 * len(AllTasks) * 2
	if len(c.Scans) != wantScans {
		t.Fatalf("scans = %d want %d", len(c.Scans), wantScans)
	}
	s, err := c.Scan(3, Language, RL)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if r, cols := s.Series.Dims(); r != 40 || cols != 120 {
		t.Errorf("task scan dims = %dx%d want 40x120", r, cols)
	}
	rest, _ := c.Scan(3, Rest1, LR)
	if _, cols := rest.Series.Dims(); cols != 160 {
		t.Errorf("rest frames = %d want 160", cols)
	}
	if _, err := c.Scan(99, Rest1, LR); err == nil {
		t.Error("expected error for missing subject")
	}
}

func TestGenerateHCPDeterministic(t *testing.T) {
	p := DefaultHCPParams()
	p.Subjects = 4
	p.Regions = 20
	p.RestFrames = 40
	p.TaskFrames = 40
	a, err := GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	b, err := GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	sa, _ := a.Scan(2, Motor, LR)
	sb, _ := b.Scan(2, Motor, LR)
	if !sa.Series.EqualApprox(sb.Series, 0) {
		t.Error("same seed should reproduce identical scans")
	}
	p.Seed = 99
	cDiff, _ := GenerateHCP(p)
	sc, _ := cDiff.Scan(2, Motor, LR)
	if sa.Series.EqualApprox(sc.Series, 1e-9) {
		t.Error("different seed should change scans")
	}
}

func TestScansFor(t *testing.T) {
	c := smallHCP(t)
	scans, err := c.ScansFor(Rest1, LR)
	if err != nil {
		t.Fatalf("ScansFor: %v", err)
	}
	if len(scans) != 12 {
		t.Fatalf("scans = %d want 12", len(scans))
	}
	for i, s := range scans {
		if s.Subject != i || s.Task != Rest1 || s.Encoding != LR {
			t.Fatalf("scan %d mislabeled: %+v", i, s)
		}
	}
}

// TestIntraSubjectSimilarityDominates checks the core phenomenon: the
// correlation between two resting connectomes of the same subject
// exceeds the correlation between connectomes of different subjects
// (paper Figure 1).
func TestIntraSubjectSimilarityDominates(t *testing.T) {
	c := smallHCP(t)
	n := c.Params.Subjects
	vecs1 := make([][]float64, n)
	vecs2 := make([][]float64, n)
	for s := 0; s < n; s++ {
		s1, _ := c.Scan(s, Rest1, LR)
		s2, _ := c.Scan(s, Rest2, RL)
		vecs1[s] = connVec(t, s1)
		vecs2[s] = connVec(t, s2)
	}
	var intra, inter []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r, err := stats.Pearson(vecs1[i], vecs2[j])
			if err != nil {
				t.Fatalf("Pearson: %v", err)
			}
			if i == j {
				intra = append(intra, r)
			} else {
				inter = append(inter, r)
			}
		}
	}
	mi, _ := stats.MinMax(intra)
	_, xj := stats.MinMax(inter)
	t.Logf("intra: mean=%.3f min=%.3f; inter: mean=%.3f max=%.3f",
		stats.Mean(intra), mi, stats.Mean(inter), xj)
	if stats.Mean(intra) <= stats.Mean(inter)+0.05 {
		t.Errorf("intra-subject similarity (%.3f) does not dominate inter (%.3f)",
			stats.Mean(intra), stats.Mean(inter))
	}
}

// TestExpressionOrdering checks that the per-task signature expression
// shows up in the data: rest scans of the same subject are more similar
// across sessions than motor scans of the same subject (relative to the
// inter-subject baseline).
func TestExpressionOrdering(t *testing.T) {
	c := smallHCP(t)
	n := c.Params.Subjects
	contrast := func(task Task) float64 {
		var intra, inter []float64
		vecsLR := make([][]float64, n)
		vecsRL := make([][]float64, n)
		for s := 0; s < n; s++ {
			lr, _ := c.Scan(s, task, LR)
			rl, _ := c.Scan(s, task, RL)
			vecsLR[s] = connVec(t, lr)
			vecsRL[s] = connVec(t, rl)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				r, _ := stats.Pearson(vecsLR[i], vecsRL[j])
				if i == j {
					intra = append(intra, r)
				} else {
					inter = append(inter, r)
				}
			}
		}
		return stats.Mean(intra) - stats.Mean(inter)
	}
	restC := contrast(Rest1)
	langC := contrast(Language)
	motorC := contrast(Motor)
	t.Logf("contrast rest=%.4f language=%.4f motor=%.4f", restC, langC, motorC)
	if !(restC > motorC && langC > motorC) {
		t.Errorf("expression ordering violated: rest=%.4f lang=%.4f motor=%.4f", restC, langC, motorC)
	}
}

// TestTaskClustersSeparate checks the Figure 6 premise: scans of the
// same task (across subjects) are more similar than scans of the same
// subject across different tasks.
func TestTaskClustersSeparate(t *testing.T) {
	c := smallHCP(t)
	// Compare LANGUAGE scans of subjects 0 and 1 against subject 0's
	// LANGUAGE vs MOTOR scans.
	l0 := connVec(t, mustScan(t, c, 0, Language, LR))
	l1 := connVec(t, mustScan(t, c, 1, Language, LR))
	m0 := connVec(t, mustScan(t, c, 0, Motor, LR))
	sameTask, _ := stats.Pearson(l0, l1)
	sameSubject, _ := stats.Pearson(l0, m0)
	t.Logf("same-task=%.3f same-subject-cross-task=%.3f", sameTask, sameSubject)
	if sameTask <= sameSubject {
		t.Errorf("task structure should dominate: same-task %.3f <= cross-task %.3f", sameTask, sameSubject)
	}
}

func mustScan(t *testing.T, c *HCPCohort, subject int, task Task, enc Encoding) *Scan {
	t.Helper()
	s, err := c.Scan(subject, task, enc)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return s
}

func TestPerformanceScores(t *testing.T) {
	c := smallHCP(t)
	for _, task := range PerformanceTasks {
		scores, ok := c.Performance[task]
		if !ok {
			t.Fatalf("missing performance for %v", task)
		}
		if len(scores) != c.Params.Subjects {
			t.Fatalf("%v: %d scores want %d", task, len(scores), c.Params.Subjects)
		}
		for s, v := range scores {
			if v < 40 || v > 100 {
				t.Errorf("%v subject %d: score %v out of [40,100]", task, s, v)
			}
		}
		if stats.StdDev(scores) == 0 {
			t.Errorf("%v: degenerate constant scores", task)
		}
	}
	if _, ok := c.Performance[Motor]; ok {
		t.Error("motor task should have no performance metric")
	}
}

func TestTaskStringAndHelpers(t *testing.T) {
	if Rest1.String() != "REST1" || WorkingMemory.String() != "WM" {
		t.Error("task names wrong")
	}
	if !Rest2.IsRest() || Language.IsRest() {
		t.Error("IsRest wrong")
	}
	if Rest1.componentIndex() != Rest2.componentIndex() {
		t.Error("rest sessions must share a component")
	}
	if LR.String() != "LR" || RL.String() != "RL" {
		t.Error("encoding names wrong")
	}
	if Task(99).String() == "" {
		t.Error("unknown task should still render")
	}
}

func TestDefaultExpressionCoversAllTasks(t *testing.T) {
	e := DefaultExpression()
	for _, task := range AllTasks {
		if _, ok := e[task]; !ok {
			t.Errorf("missing expression for %v", task)
		}
	}
	if e[Rest1] <= e[Language] || e[Language] <= e[Motor] {
		t.Error("expression ordering should be rest > language > motor")
	}
}

func TestAddSeriesNoise(t *testing.T) {
	p := DefaultHCPParams()
	p.Subjects = 2
	p.Regions = 10
	p.RestFrames = 400
	p.TaskFrames = 60
	c, err := GenerateHCP(p)
	if err != nil {
		t.Fatalf("GenerateHCP: %v", err)
	}
	s, _ := c.Scan(0, Rest1, LR)
	rng := rand.New(rand.NewSource(3))
	noisy, err := AddSeriesNoise(s.Series, 0.2, rng)
	if err != nil {
		t.Fatalf("AddSeriesNoise: %v", err)
	}
	// Original untouched.
	if !s.Series.EqualApprox(s.Series, 0) {
		t.Fatal("sanity")
	}
	if noisy.EqualApprox(s.Series, 1e-9) {
		t.Fatal("noise had no effect")
	}
	// Variance increased by roughly the requested fraction.
	row0 := s.Series.Row(0)
	noisyRow0 := noisy.Row(0)
	v0, v1 := stats.Variance(row0), stats.Variance(noisyRow0)
	ratio := v1 / v0
	if ratio < 1.05 || ratio > 1.5 {
		t.Errorf("variance ratio %.3f, want ≈1.2", ratio)
	}
	// Mean shifted by about the original mean (noise mean = signal mean).
	if _, err := AddSeriesNoise(s.Series, -1, rng); err == nil {
		t.Error("expected error for negative fraction")
	}
	same, err := AddSeriesNoise(s.Series, 0, rng)
	if err != nil || !same.EqualApprox(s.Series, 0) {
		t.Error("zero fraction should be identity")
	}
}

func TestNoisyCopyHCP(t *testing.T) {
	c := smallHCP(t)
	scans, _ := c.ScansFor(Rest1, LR)
	rng := rand.New(rand.NewSource(4))
	noisy, err := NoisyCopyHCP(scans, 0.1, rng)
	if err != nil {
		t.Fatalf("NoisyCopyHCP: %v", err)
	}
	if len(noisy) != len(scans) {
		t.Fatal("length mismatch")
	}
	if noisy[0].Series == scans[0].Series {
		t.Error("series must be copied, not aliased")
	}
	if noisy[0].Subject != scans[0].Subject {
		t.Error("metadata must be preserved")
	}
}

func TestGenerateADHDShape(t *testing.T) {
	p := DefaultADHDParams()
	c, err := GenerateADHD(p)
	if err != nil {
		t.Fatalf("GenerateADHD: %v", err)
	}
	total := p.NumSubjects()
	if len(c.Scans) != 2*total {
		t.Fatalf("scans = %d want %d", len(c.Scans), 2*total)
	}
	if len(c.Groups) != total || len(c.Sites) != total {
		t.Fatal("labels missing")
	}
	// Scan layout: subject-major, session-minor.
	for s := 0; s < total; s++ {
		for sess := 0; sess < 2; sess++ {
			scan := c.Scans[2*s+sess]
			if scan.Subject != s || scan.Session != sess {
				t.Fatalf("layout wrong at subject %d session %d", s, sess)
			}
		}
	}
	for _, site := range c.Sites {
		if site < 0 || site >= p.Sites {
			t.Fatalf("site %d out of range", site)
		}
	}
}

func TestADHDValidate(t *testing.T) {
	p := DefaultADHDParams()
	p.Controls, p.Subtype1, p.Subtype2, p.Subtype3 = 0, 0, 0, 1
	if err := p.Validate(); err == nil {
		t.Error("expected error for tiny cohort")
	}
	p = DefaultADHDParams()
	p.Sites = 0
	if err := p.Validate(); err == nil {
		t.Error("expected error for zero sites")
	}
}

func TestSubjectsInGroups(t *testing.T) {
	c, err := GenerateADHD(DefaultADHDParams())
	if err != nil {
		t.Fatalf("GenerateADHD: %v", err)
	}
	cases := c.SubjectsInGroups(Subtype1, Subtype3)
	for _, s := range cases {
		if g := c.Groups[s]; g != Subtype1 && g != Subtype3 {
			t.Fatalf("subject %d has group %v", s, g)
		}
	}
	controls := c.SubjectsInGroups(Control)
	if len(controls) != c.Params.Controls {
		t.Errorf("controls = %d want %d", len(controls), c.Params.Controls)
	}
}

func TestSessionScans(t *testing.T) {
	c, _ := GenerateADHD(DefaultADHDParams())
	subjects := []int{0, 3, 5}
	scans, err := c.SessionScans(subjects, 1)
	if err != nil {
		t.Fatalf("SessionScans: %v", err)
	}
	for i, s := range scans {
		if s.Subject != subjects[i] || s.Session != 1 {
			t.Fatalf("wrong scan: %+v", s)
		}
	}
	if _, err := c.SessionScans(subjects, 2); err == nil {
		t.Error("expected error for session 2")
	}
}

// TestADHDIntraSubjectSimilarity mirrors the HCP check for the ADHD
// cohort (paper Figures 7–9).
func TestADHDIntraSubjectSimilarity(t *testing.T) {
	c, err := GenerateADHD(DefaultADHDParams())
	if err != nil {
		t.Fatalf("GenerateADHD: %v", err)
	}
	subjects := c.SubjectsInGroups(Subtype1)
	s1, _ := c.SessionScans(subjects, 0)
	s2, _ := c.SessionScans(subjects, 1)
	vec := func(s *ADHDScan) []float64 {
		con, err := connectome.FromRegionSeries(s.Series, connectome.Options{})
		if err != nil {
			t.Fatalf("connectome: %v", err)
		}
		return con.Vectorize()
	}
	var intra, inter []float64
	for i := range s1 {
		vi := vec(s1[i])
		for j := range s2 {
			r, _ := stats.Pearson(vi, vec(s2[j]))
			if i == j {
				intra = append(intra, r)
			} else {
				inter = append(inter, r)
			}
		}
	}
	if stats.Mean(intra) <= stats.Mean(inter)+0.05 {
		t.Errorf("ADHD intra %.3f does not dominate inter %.3f", stats.Mean(intra), stats.Mean(inter))
	}
}

func TestADHDGroupString(t *testing.T) {
	if Control.String() != "control" || Subtype3.String() != "adhd-inattentive" {
		t.Error("group names wrong")
	}
	if !strings.Contains(ADHDGroup(9).String(), "9") {
		t.Error("unknown group should render its number")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	p := DefaultHCPParams()
	p.Subjects = 2
	p.Regions = 6
	p.RestFrames = 10
	p.TaskFrames = 10
	c, _ := GenerateHCP(p)
	s, _ := c.Scan(0, Rest1, LR)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s); err != nil {
		t.Fatalf("WriteSeriesCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 { // header + 6 regions
		t.Fatalf("lines = %d want 7", len(lines))
	}
	if !strings.HasPrefix(lines[0], "region,t0,") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestWritePerformanceCSV(t *testing.T) {
	p := DefaultHCPParams()
	p.Subjects = 3
	p.Regions = 8
	p.RestFrames = 20
	p.TaskFrames = 20
	c, _ := GenerateHCP(p)
	var buf bytes.Buffer
	if err := WritePerformanceCSV(&buf, c); err != nil {
		t.Fatalf("WritePerformanceCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d want 4", len(lines))
	}
	if !strings.Contains(lines[0], "LANGUAGE") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestParseTaskAndEncoding(t *testing.T) {
	for _, task := range AllTasks {
		got, err := ParseTask(task.String())
		if err != nil || got != task {
			t.Errorf("ParseTask(%q) = %v, %v", task.String(), got, err)
		}
	}
	if got, err := ParseTask("rest1"); err != nil || got != Rest1 {
		t.Errorf("ParseTask is not case-insensitive: %v, %v", got, err)
	}
	if _, err := ParseTask("JUGGLING"); err == nil {
		t.Error("expected error for unknown task")
	}
	if got, err := ParseEncoding("rl"); err != nil || got != RL {
		t.Errorf("ParseEncoding(rl) = %v, %v", got, err)
	}
	if got, err := ParseEncoding("LR"); err != nil || got != LR {
		t.Errorf("ParseEncoding(LR) = %v, %v", got, err)
	}
	if _, err := ParseEncoding("UD"); err == nil {
		t.Error("expected error for unknown encoding")
	}
}
