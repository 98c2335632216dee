package prep

import (
	"math"
	"testing"
)

// This test reaches the unexported satMul, so it stays in package prep;
// the rest of the estimate tests live in prep_test because they draw
// instances from internal/workload, which imports this package through
// feas and heur.

// TestSatMulNearOverflow pins the saturation boundary itself: products
// that fit exactly stay exact, and the first product past MaxInt clamps
// instead of wrapping negative (which would sail through any budget).
func TestSatMulNearOverflow(t *testing.T) {
	half := math.MaxInt / 2
	if got := satMul(half, 2); got != half*2 {
		t.Fatalf("satMul(MaxInt/2, 2) = %d, want exact %d", got, half*2)
	}
	if got := satMul(half+1, 2); got != math.MaxInt {
		t.Fatalf("satMul(MaxInt/2+1, 2) = %d, want MaxInt saturation", got)
	}
	if got := satMul(math.MaxInt, 1); got != math.MaxInt {
		t.Fatalf("satMul(MaxInt, 1) = %d, want MaxInt", got)
	}
	if got := satMul(math.MaxInt, 0); got != 0 {
		t.Fatalf("satMul(MaxInt, 0) = %d, want 0", got)
	}
}
