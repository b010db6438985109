package connectome

import (
	"math"
	"testing"

	"brainprint/internal/linalg"
)

// triangleConnectome builds a 4-region connectome where regions 0, 1, 2
// form a strong triangle and region 3 is weakly attached.
func triangleConnectome() *Connectome {
	c := &Connectome{C: linalg.NewMatrix(4, 4)}
	set := func(i, j int, w float64) {
		c.C.Set(i, j, w)
		c.C.Set(j, i, w)
	}
	for i := 0; i < 4; i++ {
		c.C.Set(i, i, 1)
	}
	set(0, 1, 0.9)
	set(0, 2, 0.8)
	set(1, 2, 0.85)
	set(0, 3, 0.1)
	set(1, 3, 0.05)
	set(2, 3, 0.02)
	return c
}

func TestClusteringCoefficients(t *testing.T) {
	c := triangleConnectome()
	cc := c.ClusteringCoefficients()
	// Triangle members cluster more than the peripheral region.
	if cc[0] <= cc[3] || cc[1] <= cc[3] || cc[2] <= cc[3] {
		t.Errorf("triangle nodes should cluster more: %v", cc)
	}
	for i, v := range cc {
		if v < 0 || v > 1+1e-12 {
			t.Errorf("clustering[%d] = %v out of [0,1]", i, v)
		}
	}
	// Zero matrix yields zeros.
	zero := &Connectome{C: linalg.NewMatrix(3, 3)}
	for _, v := range zero.ClusteringCoefficients() {
		if v != 0 {
			t.Error("zero connectome should have zero clustering")
		}
	}
}

func TestClusteringPerfectGraph(t *testing.T) {
	// All edges equal: every coefficient is exactly 1 after weight
	// normalization.
	c := &Connectome{C: linalg.NewMatrix(5, 5)}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				c.C.Set(i, j, 0.7)
			} else {
				c.C.Set(i, i, 1)
			}
		}
	}
	for i, v := range c.ClusteringCoefficients() {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("uniform graph clustering[%d] = %v want 1", i, v)
		}
	}
}
