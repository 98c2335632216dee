// Package core implements the paper's primary contribution: exact
// polynomial-time dynamic programs for multiprocessor gap scheduling
// (Theorem 1) and multiprocessor power minimization (Theorem 2).
//
// Both programs share one skeleton, the interval decomposition that
// Demaine et al. build on top of Baptiste's single-machine DP [Bap06]:
//
//   - Lemma 1/2 (staircase form): some optimal solution occupies, at
//     every time, a prefix of the processors; only the occupancy
//     (resp. active-count) profile l_t matters, and the objective is the
//     number of profile span-starts Σ_u (l_u − l_{u−1})_+ — the total
//     number of sleep→active transitions. (See DESIGN.md §1 for why
//     transitions, not per-processor finite gaps, is the consistent
//     objective; on one processor gaps = spans − 1.)
//
//   - Subproblem identity: C(t1, t2, k, ℓ1, ℓ2, c2) schedules
//     J(t1,t2,k) — the k earliest-deadline jobs among those released in
//     [t1, t2] — inside [t1, t2], where ℓ1/ℓ2 pin the boundary profile
//     levels and c2 counts "context" jobs stacked at t2 by ancestors
//     (the paper's q). Recursing on the latest-deadline job j_k placed
//     at a guessed time t′ (maximal over optimal solutions, so jobs
//     scheduled after t′ are released after t′) splits the problem into
//     [t1, t′] and [t′+1, t2], and both children's job sets are again
//     deadline-prefixes of release windows.
//
//   - Candidate times: by the span-anchoring argument (Baptiste's
//     Prop 2.1 extended to profiles, and to the power objective via
//     concavity of gap-bridging costs in the shift), some optimal
//     solution only executes jobs at times within distance n of a
//     release or a deadline, an O(n²)-size grid (prep.AnchorGrid).
//
// Every boundary u (the span-start/active-unit charge between times u−1
// and u) is owned by exactly one node of the recursion tree: a node
// owns u ∈ (t1, t2], delegates (t1, t′] to its left child and
// (t′+1, t2] minus {t′+1} to its right child, and pays for u = t′+1
// itself.
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/prep"
	"repro/internal/sched"
)

// ErrInfeasible is returned when the instance admits no feasible
// schedule.
var ErrInfeasible = errors.New("core: instance is infeasible")

// base holds the instance view shared by every engine instantiation.
type base struct {
	jobs  []sched.Job
	p     int
	byDL  []int // all job indices in (deadline, release, index) order
	relDL []int // relDL[x] is the release of job byDL[x]
	grid  []int // candidate execution times, sorted ascending

	lists map[[2]int][]int // (t1,t2) → R(t1,t2) in deadline order
}

func newBase(in sched.Instance) *base {
	b := &base{
		jobs:  in.Jobs,
		p:     in.Procs,
		byDL:  in.SortedByDeadline(),
		grid:  prep.AnchorGrid(in),
		lists: make(map[[2]int][]int),
	}
	// No schedule ever occupies more than n processors at once, and no
	// optimal profile rises above the busiest time, so capping p at n
	// preserves the optimum while shrinking the level dimensions of the
	// memo table.
	if b.p > len(in.Jobs) {
		b.p = len(in.Jobs)
	}
	b.relDL = make([]int, len(b.byDL))
	for x, j := range b.byDL {
		b.relDL[x] = in.Jobs[j].Release
	}
	return b
}

// list returns the deadline-ordered global job indices released in
// [t1, t2], cached per interval. A miss scans the contiguous relDL
// twice, counting first, so the list is allocated at its exact size.
func (b *base) list(t1, t2 int) []int {
	key := [2]int{t1, t2}
	if l, ok := b.lists[key]; ok {
		return l
	}
	cnt := 0
	for _, a := range b.relDL {
		if t1 <= a && a <= t2 {
			cnt++
		}
	}
	l := make([]int, 0, cnt)
	for x, a := range b.relDL {
		if t1 <= a && a <= t2 {
			l = append(l, b.byDL[x])
		}
	}
	b.lists[key] = l
	return l
}

// gridRange returns the half-open index range of grid times within
// [lo, hi].
func (b *base) gridRange(lo, hi int) (int, int) {
	return sort.SearchInts(b.grid, lo), sort.SearchInts(b.grid, hi+1)
}

// pendingAfter counts, among the first k−1 jobs of list, those released
// strictly after t (the i of the recurrence: jobs that must go to the
// right subproblem when j_k is placed at t).
func pendingAfter(jobs []sched.Job, list []int, k, t int) int {
	cnt := 0
	for _, j := range list[:k-1] {
		if jobs[j].Release > t {
			cnt++
		}
	}
	return cnt
}

// choice kinds recorded for reconstruction. choiceUnset must stay zero:
// the flat memo table treats a zero entry as "not yet computed".
const (
	choiceUnset  = iota // memo slot never written
	choiceNone          // infeasible
	choiceEmpty         // base case, no own jobs
	choicePoint         // base case t1 == t2, all k jobs at t1
	choiceA             // j_k placed at t2 (paper case t′ = t2)
	choiceB             // j_k placed at t′ < t2, split into two children
	choicePruned        // cut by branch and bound; cost holds the budget
)

// Result reports the outcome of an exact gap-scheduling solve.
type Result struct {
	// Spans is the optimal number of spans (wake-ups) summed over
	// processors.
	Spans int
	// Gaps is Spans−1 (clamped at 0): the idle periods in the
	// concatenated-timeline convention; on one processor this is the
	// classic gap count.
	Gaps int
	// Schedule is an optimal schedule in staircase form.
	Schedule sched.Schedule
	// States is the number of memoized subproblems, a measure of the
	// DP's effective size.
	States int
	// PrunedStates counts subproblems answered by the branch-and-bound
	// lower bound (or a memoized prune marker) without being expanded;
	// 0 when pruning is disabled.
	PrunedStates int
	// ExpandedStates counts subproblems the recursion actually expanded.
	ExpandedStates int
}

// PowerResult reports the outcome of an exact power-minimization solve.
type PowerResult struct {
	// Power is the optimal power consumption: active units plus Alpha
	// per sleep→active transition, with idle-active bridging permitted.
	Power float64
	// Schedule is an optimal schedule in staircase form.
	Schedule sched.Schedule
	// States is the number of memoized subproblems.
	States int
	// PrunedStates counts subproblems answered by the branch-and-bound
	// lower bound without being expanded; 0 when pruning is disabled.
	PrunedStates int
	// ExpandedStates counts subproblems the recursion actually expanded.
	ExpandedStates int
}

// assemble builds a staircase schedule from job→time placements.
func assemble(n, procs int, placed map[int]int) (sched.Schedule, error) {
	if len(placed) != n {
		return sched.Schedule{}, fmt.Errorf("core: reconstruction placed %d of %d jobs", len(placed), n)
	}
	byTime := make(map[int][]int)
	for j, t := range placed {
		byTime[t] = append(byTime[t], j)
	}
	s := sched.Schedule{Procs: procs, Slots: make([]sched.Assignment, n)}
	for t, js := range byTime {
		sort.Ints(js)
		if len(js) > procs {
			return sched.Schedule{}, fmt.Errorf("core: %d jobs at time %d exceed %d processors", len(js), t, procs)
		}
		for q, j := range js {
			s.Slots[j] = sched.Assignment{Proc: q, Time: t}
		}
	}
	return s, nil
}
