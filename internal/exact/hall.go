package exact

import (
	"slices"

	"repro/internal/sched"
)

// HallFeasible reports whether the one-interval p-processor instance
// admits a feasible schedule by checking Hall's condition for interval
// bipartite graphs directly: for every window [s, e] from a release s to
// a deadline e, the jobs whose windows lie inside it must not exceed
// p·(e − s + 1). An invalid instance is reported infeasible.
//
// It runs in O(R·D·n) for R distinct releases and D distinct deadlines.
// It is the reference the tests hold the O(n log n) verdicts against —
// feas.FeasibleOneInterval and the exact solvers' ErrInfeasible, both
// of which come from heur.Greedy — and no production path calls it.
func HallFeasible(in sched.Instance) bool {
	if in.ValidateShape() != nil {
		return false
	}
	n := len(in.Jobs)
	if n == 0 {
		return true
	}
	// No window holds more than n jobs, so p caps at n and any window
	// wider than n time units satisfies the condition outright.
	p := min(in.Procs, n)
	releases := make([]int, 0, n)
	deadlines := make([]int, 0, n)
	for _, j := range in.Jobs {
		releases = append(releases, j.Release)
		deadlines = append(deadlines, j.Deadline)
	}
	slices.Sort(releases)
	slices.Sort(deadlines)
	releases, deadlines = slices.Compact(releases), slices.Compact(deadlines)
	for _, s := range releases {
		for _, e := range deadlines {
			if e < s {
				continue
			}
			// e − s wraps for windows spanning more than MaxInt, but the
			// unsigned view of the wrapped difference is exact.
			width := uint(e - s)
			if width >= uint(n) {
				continue
			}
			inside := 0
			for _, j := range in.Jobs {
				if j.Release >= s && j.Deadline <= e {
					inside++
				}
			}
			if inside > p*(int(width)+1) {
				return false
			}
		}
	}
	return true
}
