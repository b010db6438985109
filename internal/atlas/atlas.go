// Package atlas models brain parcellations: annotated standard-brain
// label maps that group voxels into regions ("parcels"). The attack
// never works on raw voxels; every connectome is computed on
// region-averaged time series, so the atlas determines the feature
// dimensionality (n regions ⇒ n(n−1)/2 connectome features).
//
// Two synthetic atlases mirror the ones the paper uses: a 360-region
// hemisphere-symmetric atlas standing in for the Glasser multi-modal
// parcellation (HCP experiments) and a 116-region atlas standing in for
// AAL (ADHD-200 experiments, 116·115/2 = 6670 features as in §3.3.4).
package atlas

import (
	"fmt"
	"math"

	"brainprint/internal/fmri"
	"brainprint/internal/linalg"
)

// Hemisphere identifies the brain hemisphere a region belongs to.
type Hemisphere int

// Hemisphere values.
const (
	Left Hemisphere = iota
	Right
	Midline
)

// String implements fmt.Stringer.
func (h Hemisphere) String() string {
	switch h {
	case Left:
		return "L"
	case Right:
		return "R"
	default:
		return "M"
	}
}

// Region is one parcel of the atlas. Center is in normalized brain
// coordinates (the unit ball used by fmri.Phantom.NormalizedCoords).
type Region struct {
	ID         int
	Name       string
	Hemisphere Hemisphere
	Center     [3]float64
}

// Atlas is a parcellation of the normalized brain into disjoint regions.
// Voxels are assigned to the nearest region centre (a Voronoi
// parcellation), which guarantees the non-overlap property §3.2.2 calls
// desirable.
type Atlas struct {
	Name    string
	Regions []Region
}

// NumRegions returns the region count.
func (a *Atlas) NumRegions() int { return len(a.Regions) }

// NumEdges returns the number of distinct region pairs, i.e. the length
// of a vectorized connectome built on this atlas.
func (a *Atlas) NumEdges() int {
	n := len(a.Regions)
	return n * (n - 1) / 2
}

// LabelPoint returns the region id whose centre is nearest to the
// normalized coordinate (x, y, z).
func (a *Atlas) LabelPoint(x, y, z float64) int {
	best, bestD := 0, math.Inf(1)
	for i, r := range a.Regions {
		dx := x - r.Center[0]
		dy := y - r.Center[1]
		dz := z - r.Center[2]
		d := dx*dx + dy*dy + dz*dz
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// LabelVoxels assigns every brain voxel of the phantom to a region,
// returning one label per entry of ph.BrainVoxel.
func (a *Atlas) LabelVoxels(ph *fmri.Phantom) []int {
	labels := make([]int, ph.NumBrainVoxels())
	for ord, idx := range ph.BrainVoxel {
		x, y, z := ph.NormalizedCoords(idx)
		labels[ord] = a.LabelPoint(x, y, z)
	}
	return labels
}

// GlasserLike returns a 360-region hemisphere-symmetric atlas standing
// in for the Glasser et al. multi-modal parcellation used in the HCP
// experiments. Construction is deterministic.
func GlasserLike() *Atlas { return SymmetricAtlas("glasser360", 360) }

// AALLike returns a 116-region atlas standing in for the AAL
// parcellation used in the ADHD-200 experiments (6670 edge features).
func AALLike() *Atlas { return SymmetricAtlas("aal116", 116) }

// SymmetricAtlas builds an atlas with regions symmetric across the left
// and right hemispheres, as both real atlases are. n must be even and
// positive; it panics otherwise (atlas construction is programmer
// configuration, not runtime input).
func SymmetricAtlas(name string, n int) *Atlas {
	if n <= 0 || n%2 != 0 {
		panic(fmt.Sprintf("atlas: SymmetricAtlas needs a positive even region count, got %d", n))
	}
	half := n / 2
	centers := haltonBallPoints(half, true)
	regions := make([]Region, 0, n)
	for i, c := range centers {
		right := c
		left := [3]float64{-c[0], c[1], c[2]}
		regions = append(regions,
			Region{ID: 2 * i, Name: fmt.Sprintf("R_%s_%d", name, i+1), Hemisphere: Right, Center: right},
			Region{ID: 2*i + 1, Name: fmt.Sprintf("L_%s_%d", name, i+1), Hemisphere: Left, Center: left},
		)
	}
	return &Atlas{Name: name, Regions: regions}
}

// ReduceSeries collapses a voxel-level series into a regions×time matrix
// by averaging the voxel time series within each region, exactly as
// §3.2.2 prescribes. brainVoxels holds the flat voxel indices of the
// brain (fmri.Phantom.BrainVoxel) and labels the region of each, in the
// same order. Regions with no voxels yield zero rows.
func ReduceSeries(s *fmri.Series, brainVoxels []int, labels []int, numRegions int) (*linalg.Matrix, error) {
	if len(brainVoxels) != len(labels) {
		return nil, fmt.Errorf("atlas: %d brain voxels but %d labels", len(brainVoxels), len(labels))
	}
	frames := s.NumFrames()
	out := linalg.NewMatrix(numRegions, frames)
	counts := make([]int, numRegions)
	for ord, idx := range brainVoxels {
		r := labels[ord]
		if r < 0 || r >= numRegions {
			return nil, fmt.Errorf("atlas: label %d out of range %d", r, numRegions)
		}
		counts[r]++
		row := out.RowView(r)
		for t, f := range s.Frames {
			row[t] += f.Data[idx]
		}
	}
	for r, c := range counts {
		if c == 0 {
			continue
		}
		row := out.RowView(r)
		inv := 1 / float64(c)
		for t := range row {
			row[t] *= inv
		}
	}
	return out, nil
}

// haltonBallPoints generates n quasi-random points inside the unit ball
// using the Halton low-discrepancy sequence (bases 2, 3, 5), optionally
// restricted to the x>0 half-ball for hemisphere mirroring. The sequence
// is deterministic, so atlases are reproducible across runs.
func haltonBallPoints(n int, positiveX bool) [][3]float64 {
	pts := make([][3]float64, 0, n)
	for i := 1; len(pts) < n; i++ {
		x := 2*halton(i, 2) - 1
		y := 2*halton(i, 3) - 1
		z := 2*halton(i, 5) - 1
		if positiveX {
			x = math.Abs(x)
			if x < 0.02 {
				continue // keep centres clearly lateralized
			}
		}
		if x*x+y*y+z*z <= 1 {
			pts = append(pts, [3]float64{x, y, z})
		}
	}
	return pts
}

// halton returns the i-th element of the Halton sequence in the given
// base.
func halton(i, base int) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}
