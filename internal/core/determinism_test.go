package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// atProcs runs solve once with GOMAXPROCS set to procs, restoring the
// previous setting afterwards.
func atProcs[R any](procs int, solve func() (R, error)) (R, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return solve()
}

// sameAtAnyProcs solves at GOMAXPROCS 1 and 4 and requires identical
// results: cost, schedule, States, ExpandedStates and PrunedStates.
func sameAtAnyProcs[R any](t *testing.T, name string, solve func() (R, error)) {
	t.Helper()
	one, err1 := atProcs(1, solve)
	four, err4 := atProcs(4, solve)
	if err1 != nil || err4 != nil {
		t.Fatalf("%s: solve failed: %v / %v", name, err1, err4)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("%s: GOMAXPROCS=1 result %+v\ndiffers from GOMAXPROCS=4 result %+v", name, one, four)
	}
}

// TestGapsDeterministicAcrossGOMAXPROCS certifies that the engine is
// one serial recursion: on a dense fragment of a few hundred jobs the
// gap DP, bounded and unbounded, reports the same result — state
// counts included — whatever the process's parallelism.
func TestGapsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("dense instance")
	}
	in := workload.StressDense(rand.New(rand.NewSource(71)), 220, 3)
	sameAtAnyProcs(t, "SolveGaps", func() (Result, error) { return SolveGaps(in) })
	sameAtAnyProcs(t, "SolveGapsOpt NoPrune", func() (Result, error) {
		return SolveGapsOpt(in, Options{NoPrune: true})
	})
}

// TestPowerDeterministicAcrossGOMAXPROCS is the same contract for the
// power DP.
func TestPowerDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("dense instance")
	}
	in := workload.StressDense(rand.New(rand.NewSource(72)), 205, 2)
	sameAtAnyProcs(t, "SolvePower", func() (PowerResult, error) { return SolvePower(in, 2.5) })
}
