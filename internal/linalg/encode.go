package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendFloat64s appends the little-endian IEEE-754 encoding of vals to
// dst and returns the extended slice. It is the gallery fingerprint
// codec's hand-rolled fast path: unlike binary.Write it performs no
// reflection and at most one allocation (growing dst).
func AppendFloat64s(dst []byte, vals []float64) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, 8*len(vals))...)
	for _, v := range vals {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
		off += 8
	}
	return dst
}

// DecodeFloat64s decodes len(out) little-endian float64 values from the
// front of src into out and returns the number of bytes consumed. It
// returns an error if src is too short.
func DecodeFloat64s(src []byte, out []float64) (int, error) {
	need := 8 * len(out)
	if len(src) < need {
		return 0, fmt.Errorf("linalg: float64 payload truncated: have %d bytes, need %d", len(src), need)
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return need, nil
}
