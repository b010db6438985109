// Package fmri models functional MRI data and its acquisition: 3-D
// volumes, 4-D time series, a digital brain phantom, and a scanner
// simulator that injects the spatial and temporal artifacts the
// preprocessing pipeline of the paper (Figure 4) is designed to remove —
// head motion, magnetic-field bias, low-frequency drift, physiological
// oscillations and thermal noise.
//
// The paper evaluates on Human Connectome Project acquisitions that we
// cannot redistribute; this package provides the synthetic stand-in that
// exercises the same code paths (see DESIGN.md, "Data substitution").
package fmri

import "fmt"

// Grid describes the spatial sampling of a volume: dimensions in voxels
// and isotropic voxel size in millimetres.
type Grid struct {
	NX, NY, NZ int
	VoxelMM    float64
}

// NewGrid returns a grid after validating the dimensions.
func NewGrid(nx, ny, nz int, voxelMM float64) (Grid, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return Grid{}, fmt.Errorf("fmri: nonpositive grid dimensions %dx%dx%d", nx, ny, nz)
	}
	if voxelMM <= 0 {
		return Grid{}, fmt.Errorf("fmri: nonpositive voxel size %v", voxelMM)
	}
	return Grid{NX: nx, NY: ny, NZ: nz, VoxelMM: voxelMM}, nil
}

// NumVoxels returns the total voxel count.
func (g Grid) NumVoxels() int { return g.NX * g.NY * g.NZ }

// Index converts (x, y, z) coordinates to a flat voxel index.
// It panics when the coordinates are out of range.
func (g Grid) Index(x, y, z int) int {
	if !g.InBounds(x, y, z) {
		panic(fmt.Sprintf("fmri: voxel (%d,%d,%d) out of grid %dx%dx%d", x, y, z, g.NX, g.NY, g.NZ))
	}
	return (z*g.NY+y)*g.NX + x
}

// Coords converts a flat voxel index back to (x, y, z).
func (g Grid) Coords(idx int) (x, y, z int) {
	if idx < 0 || idx >= g.NumVoxels() {
		panic(fmt.Sprintf("fmri: index %d out of grid with %d voxels", idx, g.NumVoxels()))
	}
	x = idx % g.NX
	y = (idx / g.NX) % g.NY
	z = idx / (g.NX * g.NY)
	return x, y, z
}

// InBounds reports whether (x, y, z) lies inside the grid.
func (g Grid) InBounds(x, y, z int) bool {
	return x >= 0 && x < g.NX && y >= 0 && y < g.NY && z >= 0 && z < g.NZ
}

// MNIGrid returns the "standard space" grid all subjects are registered
// to, loosely modelled on a downsampled MNI template. Tests and the
// synthetic experiments use small grids for speed; this helper fixes a
// common default.
func MNIGrid(n int) Grid {
	return Grid{NX: n, NY: n, NZ: n, VoxelMM: 2}
}
