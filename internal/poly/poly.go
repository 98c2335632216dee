// Package poly is the second exact backend of the solving pipeline:
// Baptiste's polynomial single-machine dynamic program for minimum-gap
// scheduling of unit jobs [Bap06] — the algorithm Baptiste, Chrobak and
// Dürr extend to minimum-energy scheduling and that Demaine et al.
// generalize to p processors (the index-space engine in internal/core).
//
// The recursion is the same interval decomposition core runs — the
// subproblem C(t1, t2, k, ℓ1, ℓ2, c2) schedules the k earliest-deadline
// jobs released in [t1, t2] under pinned boundary profile levels — but
// specialized to one effective processor, where every level dimension
// collapses to a bit: ℓ1, ℓ2, c2 ∈ {0, 1}, the case-B profile height at
// the split is always 1, and the right child's level fan-out is {0, 1}
// instead of p+1. That removes the (p+1)³ factor from the state space
// (the memo is keyed by interval pair × k × three bits) and, with it,
// the reason the index-space admission estimate rejects single-
// processor fragments in the thousands of jobs: this backend's
// admission signal (Estimate) is a polynomial of much lower degree.
//
// Like core, the recursion is branch-and-bound: the greedy tier's
// feasible schedule seeds an incumbent budget, nodes are screened by
// the admissible subinterval bounds heur.SubSpanLB/SubPowerLB, and
// pruned nodes memoize budget-aware markers. Pruning never changes an
// answer (Options.NoPrune ablates it), and on every fragment both
// backends can solve the two are bit-identical — costs and schedules —
// which solver-level property tests and the FuzzPolyExact lane certify.
package poly

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/heur"
	"repro/internal/prep"
	"repro/internal/sched"
)

// ErrInfeasible is returned when the instance admits no feasible
// schedule.
var ErrInfeasible = errors.New("poly: instance is infeasible")

// ErrMultiProcessor is returned when the instance needs more than one
// effective processor; this backend is the single-machine
// specialization (see Admissible).
var ErrMultiProcessor = errors.New("poly: instance needs more than one effective processor")

// Admissible reports whether this backend can solve the instance: at
// most one effective processor (Procs capped at the job count, the
// same cap the index-space engine applies). The empty instance is
// admissible trivially.
func Admissible(in sched.Instance) bool {
	p := in.Procs
	if n := len(in.Jobs); p > n {
		p = n
	}
	return p <= 1
}

// Estimate returns this backend's deterministic a-priori admission
// signal: G·(n+1), where G is the candidate-grid size (prep.GridSize,
// the same grid the recursion builds). Like prep.StateEstimate it is a
// routing signal — monotone in fragment size, identical for a fragment
// and its canonical form, saturating instead of overflowing — not a
// visited-state prediction; the bounded recursion expands far fewer
// states than its interval-pair space on real workloads (E23 measures
// the scaling), which is why the signal deliberately prices the
// per-interval frontier rather than the G² pair space. The empty
// instance estimates 0.
func Estimate(in sched.Instance) int {
	n := len(in.Jobs)
	if n == 0 {
		return 0
	}
	g := prep.GridSize(in)
	if g == 0 {
		return 0
	}
	if g > math.MaxInt/(n+1) {
		return math.MaxInt
	}
	return g * (n + 1)
}

// Result reports the outcome of one exact solve on this backend.
type Result struct {
	// Cost is the optimal objective value: the span count (as a float)
	// for SolveGaps, the power consumption for SolvePower.
	Cost float64
	// Schedule is an optimal schedule.
	Schedule sched.Schedule
	// States is the number of memoized subproblems.
	States int
	// PrunedStates counts subproblems answered by the branch-and-bound
	// lower bound without being expanded; 0 when pruning is disabled.
	PrunedStates int
	// ExpandedStates counts subproblems the recursion actually expanded.
	ExpandedStates int
}

// Options tunes the backend for ablation and certification.
type Options struct {
	// NoPrune disables branch-and-bound pruning (no incumbent budget,
	// no per-node bound checks; the greedy still runs for its
	// feasibility verdict). Results are identical either way.
	NoPrune bool
}

// SolveGaps computes an optimal minimum-wake-up schedule for a
// one-interval single-effective-processor instance. It returns
// ErrInfeasible when no feasible schedule exists and ErrMultiProcessor
// when Admissible is false.
func SolveGaps(in sched.Instance) (Result, error) {
	return SolveGapsOpt(in, Options{})
}

// SolveGapsOpt is SolveGaps with explicit tuning options.
func SolveGapsOpt(in sched.Instance, opts Options) (Result, error) {
	return solve(in, gapModel{}, func(s sched.Schedule) float64 {
		return float64(s.Spans())
	}, opts)
}

// SolvePower computes an optimal minimum-power schedule for a
// one-interval single-effective-processor instance with transition
// cost alpha. It returns ErrInfeasible when no feasible schedule
// exists and ErrMultiProcessor when Admissible is false.
func SolvePower(in sched.Instance, alpha float64) (Result, error) {
	return SolvePowerOpt(in, alpha, Options{})
}

// SolvePowerOpt is SolvePower with explicit tuning options.
func SolvePowerOpt(in sched.Instance, alpha float64, opts Options) (Result, error) {
	if alpha < 0 {
		return Result{}, errors.New("poly: negative transition cost alpha")
	}
	return solve(in, powerModel{alpha: alpha}, func(s sched.Schedule) float64 {
		return s.PowerCost(alpha)
	}, opts)
}

// solve runs the shared pipeline: validation, one greedy run whose
// verdict decides feasibility (the greedy is an exact feasibility
// oracle, heur package doc) and whose schedule seeds the incumbent
// budget, the bounded recursion with its defensive unbounded re-run,
// and reconstruction.
func solve[M model](in sched.Instance, m M, incumbent func(sched.Schedule) float64, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	n := len(in.Jobs)
	if n == 0 {
		return Result{Schedule: sched.Schedule{Procs: in.Procs}}, nil
	}
	if !Admissible(in) {
		return Result{}, ErrMultiProcessor
	}
	s, err := heur.Greedy(in)
	if errors.Is(err, heur.ErrInfeasible) {
		return Result{}, ErrInfeasible
	}
	if err != nil {
		return Result{}, err
	}
	budget := infinite
	if !opts.NoPrune {
		// One ulp above the incumbent, as in core: an optimum equal to
		// the incumbent stays below the budget and is found exactly.
		budget = math.Nextafter(incumbent(s), infinite)
	}
	e := newEngine(in, m)
	cost, placed, ok := e.run(n, budget)
	if !ok && budget < infinite {
		// Defensive, as in core: never let a too-tight incumbent
		// masquerade as infeasibility; re-solve unbounded.
		cost, placed, ok = e.run(n, infinite)
	}
	if !ok {
		// Cannot happen: the greedy found a feasible schedule; defensive.
		return Result{}, ErrInfeasible
	}
	schedule, err := assemble(n, in.Procs, placed)
	if err != nil {
		return Result{}, err
	}
	if err := schedule.Validate(in); err != nil {
		return Result{}, err
	}
	return Result{Cost: cost, Schedule: schedule, States: len(e.memo),
		PrunedStates: e.pruned, ExpandedStates: e.expanded}, nil
}

// assemble builds a schedule from job→time placements; on one
// effective processor every time holds at most one job.
func assemble(n, procs int, placed map[int]int) (sched.Schedule, error) {
	if len(placed) != n {
		return sched.Schedule{}, fmt.Errorf("poly: reconstruction placed %d of %d jobs", len(placed), n)
	}
	s := sched.Schedule{Procs: procs, Slots: make([]sched.Assignment, n)}
	seen := make(map[int]int, n)
	for j, t := range placed {
		if prev, dup := seen[t]; dup {
			return sched.Schedule{}, fmt.Errorf("poly: jobs %d and %d both placed at time %d", prev, j, t)
		}
		seen[t] = j
		s.Slots[j] = sched.Assignment{Proc: 0, Time: t}
	}
	return s, nil
}

// infinite marks unreachable subproblems, exactly as in core.
var infinite = math.Inf(1)

// model supplies the objective-specific hooks of the single-machine
// recursion — the p = 1 restriction of internal/core's costModel, with
// the level arguments already known to be bits. See DESIGN.md §3.
type model interface {
	stateOK(l1, l2, c2 int) bool
	emptyCost(l1, l2, c2, t1, t2 int) (float64, bool)
	pointOK(k, l1, l2, c2 int) bool
	caseAChild(l2, c2 int) (int, int, bool)
	leftLevel() int
	pointLeft(l1, kL int) (int, int, bool)
	boundary(level, next, ctx int) float64
	nodeLB(k, l1, l2, c2, t1, t2 int) float64
}

// gapModel is the span objective at one processor: levels are busy
// bits, context stacks on top of l2.
type gapModel struct{}

func (gapModel) stateOK(l1, l2, c2 int) bool { return l2+c2 <= 1 }

func (gapModel) emptyCost(l1, l2, c2, t1, t2 int) (float64, bool) {
	if l1 != 0 || l2 != 0 {
		return 0, false
	}
	if t2 > t1 {
		return float64(c2), true
	}
	return 0, true
}

func (gapModel) pointOK(k, l1, l2, c2 int) bool { return l1 == k && l2 == k && k+c2 <= 1 }

func (gapModel) caseAChild(l2, c2 int) (int, int, bool) { return l2 - 1, c2 + 1, l2 >= 1 }

// leftLevel: the left child's own level at t′ excludes j_k, and the
// profile height there is exactly 1.
func (gapModel) leftLevel() int { return 0 }

func (gapModel) pointLeft(l1, kL int) (int, int, bool) { return kL, kL, l1 == kL+1 }

func (gapModel) boundary(level, next, ctx int) float64 {
	if d := next + ctx - level; d > 0 {
		return float64(d)
	}
	return 0
}

func (gapModel) nodeLB(k, l1, l2, c2, t1, t2 int) float64 {
	return float64(heur.SubSpanLB(k, l1, l2, c2, t1, t2))
}

// powerModel is the power objective at one processor: levels are
// active bits, context executes inside l2.
type powerModel struct{ alpha float64 }

func (powerModel) stateOK(l1, l2, c2 int) bool { return l2 <= 1 && c2 <= l2 }

func (m powerModel) emptyCost(l1, l2, c2, t1, t2 int) (float64, bool) {
	if t1 == t2 {
		return 0, l1 == l2
	}
	width := t2 - t1 - 1
	best := infinite
	maxB := l1
	if l2 < maxB {
		maxB = l2
	}
	for b := 0; b <= maxB; b++ {
		if c := float64(l2) + float64(b*width) + m.alpha*float64(l2-b); c < best {
			best = c
		}
	}
	return best, true
}

func (powerModel) pointOK(k, l1, l2, c2 int) bool { return l1 == l2 && k+c2 <= l2 }

func (powerModel) caseAChild(l2, c2 int) (int, int, bool) { return l2, c2 + 1, c2+1 <= l2 }

// leftLevel: active levels include j_k, so the left child's level at
// t′ is the full profile height 1.
func (powerModel) leftLevel() int { return 1 }

func (powerModel) pointLeft(l1, kL int) (int, int, bool) { return l1, l1, true }

func (m powerModel) boundary(level, next, ctx int) float64 {
	c := float64(next)
	if next > level {
		c += m.alpha * float64(next-level)
	}
	return c
}

func (m powerModel) nodeLB(k, l1, l2, c2, t1, t2 int) float64 {
	return heur.SubPowerLB(k, l1, l2, c2, t1, t2, m.alpha)
}

// choice kinds recorded for reconstruction, mirroring core.
const (
	choiceNone   = iota // infeasible
	choiceEmpty         // base case, no own jobs
	choicePoint         // base case t1 == t2
	choiceA             // j_k placed at t2, joining the context
	choiceB             // j_k placed at t′ < t2, splitting into children
	choicePruned        // cut by branch and bound; cost holds the budget
)

// pnode identifies one subproblem: interval endpoint indices into
// t1val/t2val, the own-job count, and the three level bits packed into
// lv (l1<<2 | l2<<1 | c2). A struct key keeps the sparse memo safe for
// any grid or job count — no index-space packing to overflow.
type pnode struct {
	i1, i2, k int32
	lv        uint8
}

// pentry is one memo record: the optimal cost plus the choice
// attaining it. lp is the left child's own level at t′ for choiceB
// (−1 for a point left child); lpp the right child's level at t′+1.
type pentry struct {
	cost   float64
	tp     int32
	lp     int8
	lpp    int8
	choice int8
}

// engine runs the single-machine DP for one model. The memo is a
// sparse map — memory is the visited states, and the struct key never
// aliases — and the recursion is serial: the fragments this backend is
// for solve in milliseconds to seconds, below the fan-out threshold
// the index-space engine parallelizes at.
type engine[M model] struct {
	jobs  []sched.Job
	byDL  []int
	grid  []int
	model M

	t1val, t2val []int
	lists        map[[2]int][]int
	memo         map[pnode]pentry

	// relGI[j] is the grid index of job j's release (every release is a
	// grid point), the key pendingSweep buckets by.
	relGI []int
	// pendStack holds the pendingSweep counts of every compute frame on
	// the recursion stack; each frame truncates it back on return.
	pendStack []int

	pruned, expanded int
}

func newEngine[M model](in sched.Instance, m M) *engine[M] {
	n := len(in.Jobs)
	e := &engine[M]{
		jobs:  in.Jobs,
		byDL:  in.SortedByDeadline(),
		model: m,
		lists: make(map[[2]int][]int),
		memo:  make(map[pnode]pentry),
	}
	// The candidate grid is the one core builds (Baptiste's Prop 2.1):
	// the union of the ±n neighbourhoods of releases and deadlines,
	// clipped to the horizon.
	lo, hi := in.TimeHorizon()
	gridSet := make(map[int]struct{})
	for _, j := range in.Jobs {
		for _, center := range [2]int{j.Release, j.Deadline} {
			from, to := max(center-n, lo), min(center+n, hi)
			for t := from; t <= to; t++ {
				gridSet[t] = struct{}{}
			}
		}
	}
	e.grid = make([]int, 0, len(gridSet))
	for t := range gridSet {
		e.grid = append(e.grid, t)
	}
	sort.Ints(e.grid)

	g := len(e.grid)
	e.t1val = make([]int, g+1)
	e.t2val = make([]int, g+1)
	e.t1val[0] = e.grid[0] - 1
	for i, t := range e.grid {
		e.t1val[i+1] = t + 1
		e.t2val[i] = t
	}
	e.t2val[g] = e.grid[g-1] + 1
	e.relGI = make([]int, n)
	for j, job := range in.Jobs {
		e.relGI[j] = sort.SearchInts(e.grid, job.Release)
	}
	return e
}

// list returns the deadline-ordered job indices released in [t1, t2],
// cached per interval.
func (e *engine[M]) list(t1, t2 int) []int {
	key := [2]int{t1, t2}
	if l, ok := e.lists[key]; ok {
		return l
	}
	l := []int{}
	for _, j := range e.byDL {
		if a := e.jobs[j].Release; t1 <= a && a <= t2 {
			l = append(l, j)
		}
	}
	e.lists[key] = l
	return l
}

// pendingAfter counts, among the first k−1 jobs of list, those
// released strictly after t — the right child's job count when j_k is
// placed at t.
func (e *engine[M]) pendingAfter(list []int, k, t int) int {
	cnt := 0
	for _, j := range list[:k-1] {
		if e.jobs[j].Release > t {
			cnt++
		}
	}
	return cnt
}

// run solves the root problem covering the whole horizon and replays
// the optimal choices into job→time placements, under the same
// budget contract as core: a run that comes back !ok under a finite
// budget only certifies cost ≥ budget, not infeasibility.
func (e *engine[M]) run(n int, budget float64) (cost float64, placed map[int]int, ok bool) {
	root := pnode{i1: 0, i2: int32(len(e.grid)), k: int32(n)}
	cost = e.dp(root, budget)
	if cost >= infinite {
		return 0, nil, false
	}
	placed = make(map[int]int, n)
	e.rebuild(root, placed)
	return cost, placed, true
}

// dp returns the minimum cost of the node's subproblem, memoized, or
// infinite when that cost is at least budget. Memo semantics are
// core's exactly: exact entries serve every caller; prune markers
// record the largest budget the node was cut under and answer only
// callers whose budget they cover.
func (e *engine[M]) dp(nd pnode, budget float64) float64 {
	if r, ok := e.memo[nd]; ok {
		if r.choice != choicePruned {
			return r.cost
		}
		if budget <= r.cost {
			e.pruned++
			return infinite
		}
	}
	l1, l2, c2 := int(nd.lv>>2), int(nd.lv>>1&1), int(nd.lv&1)
	if lb := e.model.nodeLB(int(nd.k), l1, l2, c2, e.t1val[nd.i1], e.t2val[nd.i2]); lb >= budget {
		e.pruned++
		e.memo[nd] = pentry{cost: lb, choice: choicePruned}
		return infinite
	}
	e.expanded++
	r := e.compute(nd, budget)
	if r.cost < budget || budget >= infinite {
		e.memo[nd] = r
		return r.cost
	}
	e.memo[nd] = pentry{cost: budget, choice: choicePruned}
	return infinite
}

// compute is the recursion: base cases, case A (j_k joins the context
// at t2) and case B (j_k at a grid time t′ < t2). The candidate order
// — case A, then grid points ascending, then the right level next in
// {0, 1} — matches core's serial order with strict < folding, so the
// first-attaining choice (and hence the reconstructed schedule) is the
// one the index-space engine records.
func (e *engine[M]) compute(nd pnode, budget float64) pentry {
	t1, t2 := e.t1val[nd.i1], e.t2val[nd.i2]
	k := int(nd.k)
	l1, l2, c2 := int(nd.lv>>2), int(nd.lv>>1&1), int(nd.lv&1)
	inf := pentry{cost: infinite, choice: choiceNone}

	if !e.model.stateOK(l1, l2, c2) {
		return inf
	}
	if k == 0 {
		if cost, ok := e.model.emptyCost(l1, l2, c2, t1, t2); ok {
			return pentry{cost: cost, choice: choiceEmpty}
		}
		return inf
	}
	list := e.list(t1, t2)
	if k > len(list) {
		return inf
	}
	if t1 == t2 {
		if !e.model.pointOK(k, l1, l2, c2) {
			return inf
		}
		return pentry{cost: 0, choice: choicePoint}
	}

	jk := list[k-1]
	job := e.jobs[jk]
	best := inf

	// Case A: j_k at t′ = t2, joining the context stack.
	if job.Deadline >= t2 {
		if cl2, cc2, ok := e.model.caseAChild(l2, c2); ok {
			if c := e.dp(pnode{nd.i1, nd.i2, nd.k - 1, packLv(l1, cl2, cc2)}, budget); c < best.cost {
				best = pentry{cost: c, choice: choiceA}
			}
		}
	}

	// Case B: j_k at a grid time t′ ∈ [t1, t2) within its window.
	giLo := sort.SearchInts(e.grid, max(job.Release, t1))
	giHi := sort.SearchInts(e.grid, min(job.Deadline, t2-1)+1)
	if giLo < giHi {
		// A child frame that grows pendStack copies this frame's counts
		// and writes only above them, so pend stays valid either way.
		base := len(e.pendStack)
		e.pendStack = slices.Grow(e.pendStack, giHi-giLo)[:base+giHi-giLo]
		pend := e.pendStack[base:]
		e.pendingSweep(list, k, giLo, pend)
		for gi := giLo; gi < giHi; gi++ {
			best = e.evalSplit(nd, gi, pend[gi-giLo], t1, t2, budget, best)
		}
		e.pendStack = e.pendStack[:base]
	}
	return best
}

// pendingSweep sets pend[x] = pendingAfter(list, k, grid[giLo+x]) for
// every x < len(pend) in one O(k + len(pend)) pass, as core's does:
// bucket each of the first k−1 jobs at the last candidate it is
// pending after, then take suffix sums.
func (e *engine[M]) pendingSweep(list []int, k, giLo int, pend []int) {
	clear(pend)
	w := len(pend)
	for _, j := range list[:k-1] {
		if r := e.relGI[j] - giLo; r > 0 {
			pend[min(r, w)-1]++
		}
	}
	for x := w - 2; x >= 0; x-- {
		pend[x] += pend[x+1]
	}
}

func packLv(l1, l2, c2 int) uint8 { return uint8(l1<<2 | l2<<1 | c2) }

// evalSplit evaluates the case-B candidates placing j_k at grid index
// gi, with i of j_k's k−1 predecessors released after t′, folding
// improvements into best with strict <. thr0 is the caller's
// branch-and-bound budget; children see min(thr0, best so far),
// candidates whose children's summed admissible bounds already
// meet the threshold are skipped before any dp call (the skip writes
// no memo state), and under an infinite thr0 pruning is disabled
// outright — all exactly core's contract.
func (e *engine[M]) evalSplit(nd pnode, gi, i, t1, t2 int, thr0 float64, best pentry) pentry {
	k := int(nd.k)
	l1, l2, c2 := int(nd.lv>>2), int(nd.lv>>1&1), int(nd.lv&1)
	thr := func() float64 {
		if thr0 >= infinite {
			return infinite
		}
		if best.cost < thr0 {
			return best.cost
		}
		return thr0
	}

	tp := e.grid[gi]
	kL := k - 1 - i

	// The right child does not depend on the profile height at t′; its
	// two next-level values are shared by the point-left and interior
	// branches. −1 marks "not yet evaluated".
	var rights [2]float64
	rights[0], rights[1] = -1, -1
	right := func(next int) float64 {
		if rights[next] < 0 {
			rights[next] = e.dp(pnode{int32(gi) + 1, nd.i2, int32(i), packLv(next, l2, c2)}, thr())
		}
		return rights[next]
	}

	ctx := 0
	if tp+1 == t2 {
		ctx = c2
	}

	// Candidate-level cut: left bound + right bound ≥ threshold skips
	// the candidate before any child call. rLB is the right child's
	// bound minimized over next ∈ {0, 1}.
	rLB := 0.0
	if thr0 < infinite {
		rLB = infinite
		rt1, rt2 := e.t1val[gi+1], e.t2val[nd.i2]
		for next := 0; next <= 1; next++ {
			if lb := e.model.nodeLB(i, next, l2, c2, rt1, rt2); lb < rLB {
				rLB = lb
			}
		}
	}

	if tp == t1 {
		// j_k and the kL left jobs all sit at t1; the left child is the
		// single-point base with j_k as context.
		pl1, pl2, ok := e.model.pointLeft(l1, kL)
		if !ok {
			return best
		}
		if thr0 < infinite && e.model.nodeLB(kL, pl1, pl2, 1, e.t1val[nd.i1], e.t2val[gi])+rLB >= thr() {
			return best
		}
		left := e.dp(pnode{nd.i1, int32(gi), int32(kL), packLv(pl1, pl2, 1)}, thr())
		if left >= infinite {
			return best
		}
		for next := 0; next <= 1; next++ {
			r := right(next)
			if r >= infinite {
				continue
			}
			if c := left + r + e.model.boundary(l1, next, ctx); c < best.cost {
				best = pentry{cost: c, choice: choiceB, tp: int32(gi), lp: -1, lpp: int8(next)}
			}
		}
		return best
	}

	// Interior split: the profile height at t′ is exactly 1 (j_k runs
	// there), so the p-level loop of the general engine collapses to
	// this single branch.
	lv := e.model.leftLevel()
	if thr0 < infinite && e.model.nodeLB(kL, l1, lv, 1, e.t1val[nd.i1], e.t2val[gi])+rLB >= thr() {
		return best
	}
	left := e.dp(pnode{nd.i1, int32(gi), int32(kL), packLv(l1, lv, 1)}, thr())
	if left >= infinite {
		return best
	}
	for next := 0; next <= 1; next++ {
		r := right(next)
		if r >= infinite {
			continue
		}
		if c := left + r + e.model.boundary(1, next, ctx); c < best.cost {
			best = pentry{cost: c, choice: choiceB, tp: int32(gi), lp: int8(lv), lpp: int8(next)}
		}
	}
	return best
}

// rebuild replays the recorded choices into job→time placements.
func (e *engine[M]) rebuild(nd pnode, placed map[int]int) {
	r, ok := e.memo[nd]
	if !ok || r.choice == choiceNone || r.choice == choicePruned {
		return
	}
	t1, t2 := e.t1val[nd.i1], e.t2val[nd.i2]
	k := int(nd.k)
	l1, l2, c2 := int(nd.lv>>2), int(nd.lv>>1&1), int(nd.lv&1)
	switch r.choice {
	case choiceEmpty:
		return
	case choicePoint:
		for _, j := range e.list(t1, t2)[:k] {
			placed[j] = t1
		}
	case choiceA:
		jk := e.list(t1, t2)[k-1]
		placed[jk] = t2
		cl2, cc2, _ := e.model.caseAChild(l2, c2)
		e.rebuild(pnode{nd.i1, nd.i2, nd.k - 1, packLv(l1, cl2, cc2)}, placed)
	case choiceB:
		list := e.list(t1, t2)
		jk := list[k-1]
		gi := int(r.tp)
		tp := e.grid[gi]
		placed[jk] = tp
		i := e.pendingAfter(list, k, tp)
		kL := k - 1 - i
		if r.lp < 0 {
			pl1, pl2, _ := e.model.pointLeft(l1, kL)
			e.rebuild(pnode{nd.i1, int32(gi), int32(kL), packLv(pl1, pl2, 1)}, placed)
		} else {
			e.rebuild(pnode{nd.i1, int32(gi), int32(kL), packLv(l1, int(r.lp), 1)}, placed)
		}
		e.rebuild(pnode{int32(gi) + 1, nd.i2, int32(i), packLv(int(r.lpp), l2, c2)}, placed)
	}
}
