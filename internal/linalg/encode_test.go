package linalg

import "testing"

func TestFloat64sRoundTripIsBitExact(t *testing.T) {
	vals := []float64{0, 1, -1, 1e-308, -1e308, 3.141592653589793, 0.1}
	raw := AppendFloat64s([]byte{0xAA}, vals) // non-empty dst exercises append
	if len(raw) != 1+8*len(vals) {
		t.Fatalf("encoded length %d want %d", len(raw), 1+8*len(vals))
	}
	back := make([]float64, len(vals))
	n, err := DecodeFloat64s(raw[1:], back)
	if err != nil {
		t.Fatalf("DecodeFloat64s: %v", err)
	}
	if n != 8*len(vals) {
		t.Errorf("consumed %d bytes want %d", n, 8*len(vals))
	}
	for i, v := range vals {
		if back[i] != v {
			t.Errorf("value %d: %g != %g", i, back[i], v)
		}
	}
	if _, err := DecodeFloat64s(raw[1:9], back); err == nil {
		t.Error("expected truncation error on a short payload")
	}
}
