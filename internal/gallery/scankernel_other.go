//go:build !amd64

package gallery

// useAVX2 is never set off amd64: every batch and gather takes the
// pure-go bodies.
var useAVX2 = false

func dotsPanelAVX2(rows *float64, tiles, features int, panel *float64, dst *[panelLanes]*float64, n, left int) {
	panic("gallery: no panel kernel on this architecture")
}

func dotsAtAVX2(rows *[gatherLanes][]float64, features int, zp *float64, out *[gatherLanes]float64) {
	panic("gallery: no gather kernel on this architecture")
}
