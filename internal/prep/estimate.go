package prep

// A-priori DP size estimation for the facade's adaptive mode: ModeAuto
// decides per fragment whether the exact engine is affordable, before
// running it, by comparing this estimate against Solver.StateBudget.

import (
	"math"

	"repro/internal/sched"
)

// pruneDiscount scales the multiprocessor price to reflect
// branch-and-bound pruning: the index-space shape models the unpruned
// state space, while the bounded engine expands a fraction of it on
// real workloads (the state-count reductions E21 measures run well
// above this factor). Dividing the estimate, rather than multiplying
// the budget, keeps MaxInt budgets overflow-free.
const pruneDiscount = 32

// StateEstimate returns ModeAuto's deterministic a-priori admission
// price of the exact DP on one instance (typically a fragment after
// Decompose). G is the size of the candidate execution grid, GridSize:
// the anchor grid internal/core expands through AnchorGrid, so the
// price and the engine share one builder. p is the
// effective processor count, capped at n like the engine caps it:
//
//   - p ≤ 1: G·(n+1), the single-machine frontier. At one processor
//     every level dimension of the recursion collapses to a bit, and
//     the bounded engine's expanded states track the per-interval
//     frontier rather than the G² interval-pair space (E23 measures the
//     scaling).
//   - p ≥ 2: G²·(n+1)·(p+1)³/32, the engine's index-space shape
//     discounted for pruning.
//
// This is a routing signal, not a prediction of visited states, but
// it is monotone in fragment size and stable across runs, which is
// what an admission decision needs: two Solvers with the same budget
// always classify a fragment the same way. It saturates at MaxInt
// instead of overflowing on huge horizons. The empty instance
// estimates 0.
func StateEstimate(in sched.Instance) int {
	n := len(in.Jobs)
	if n == 0 {
		return 0
	}
	p := min(in.Procs, n)
	g := GridSize(in)
	if p <= 1 {
		return satMul(g, n+1)
	}
	est := g
	for _, dim := range [...]int{g, n + 1, p + 1, p + 1, p + 1} {
		est = satMul(est, dim)
	}
	if est == math.MaxInt {
		return est
	}
	return est / pruneDiscount
}

// satMul multiplies non-negative ints, saturating at MaxInt.
func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}
