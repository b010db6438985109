package ivf

import (
	"testing"
	_ "unsafe" // for go:linkname

	"brainprint/internal/gallery"
)

// scanUseAVX2 is package gallery's unexported kernel dispatch variable,
// reached by linkname so it stays unexported and unsettable outside
// tests.
//
//go:linkname scanUseAVX2 brainprint/internal/gallery.useAVX2
var scanUseAVX2 bool

// EachKernel runs body once per scan-kernel body this machine has: the
// dispatch as detected and, where that is the assembly kernel, forced
// to the pure-go bodies.
func EachKernel(t *testing.T, body func(t *testing.T)) {
	t.Run(gallery.ScanKernel(), body)
	if scanUseAVX2 {
		scanUseAVX2 = false
		defer func() { scanUseAVX2 = true }()
		t.Run(gallery.ScanKernel(), body)
	}
}
