package core

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// costModel supplies the objective-specific pieces of the shared
// interval-decomposition recursion. The engine owns the skeleton —
// subproblem identity, the case split on j_k's placement, memoization
// and reconstruction — while a model decides what boundary levels mean
// (busy counts for the span objective, active counts for power) and how
// much each boundary crossing costs. Adding a third objective means
// writing another implementation of this interface; see DESIGN.md §3.
//
// Throughout, "level" is the staircase profile height at a boundary
// time: l1 at t1, l2 at t2, with c2 context jobs stacked at t2 by
// ancestors of the current subproblem.
type costModel interface {
	// stateOK reports the objective-specific invariants tying l2 and c2
	// together (the generic 0 ≤ l1 ≤ p bounds are checked by the engine).
	stateOK(l1, l2, c2 int) bool

	// emptyCost is the base case with no own jobs: the cost of carrying
	// the boundary levels across [t1, t2], or ok=false when the levels
	// are unrealizable.
	emptyCost(l1, l2, c2, t1, t2 int) (cost float64, ok bool)

	// pointOK reports whether k own jobs plus c2 context jobs can all
	// execute at the single time t1 == t2 under boundary levels l1, l2.
	pointOK(k, l1, l2, c2 int) bool

	// caseAChild gives the child state levels when j_k is placed at t2,
	// joining the context stack (the paper's case t′ = t2).
	caseAChild(l2, c2 int) (cl2, cc2 int, ok bool)

	// leftLevel is the left child's own boundary level at t′ when the
	// profile height there (including j_k) is busy ∈ [1, p].
	leftLevel(busy int) int

	// pointLeft gives the left child's boundary levels when j_k is
	// placed at t′ == t1, collapsing the left child to the single point
	// t1 with j_k as context.
	pointLeft(l1, kL int) (pl1, pl2 int, ok bool)

	// boundary is the parent-owned cost of the time unit t′+1: the
	// profile is at height level at t′ and at height next (plus ctx
	// context jobs, for models that count them separately) at t′+1.
	boundary(level, next, ctx int) float64

	// nodeLB is an admissible lower bound on the node's cost: no
	// feasible completion of the subproblem costs less. The engine cuts
	// any node whose bound reaches the incumbent-derived budget without
	// expanding it (branch and bound); the bound must therefore never
	// overestimate, or pruning would change answers.
	nodeLB(k, l1, l2, c2, t1, t2 int) float64
}

// infinite marks unreachable subproblems. Finite costs never reach it:
// the engine only adds child costs that compare strictly below it.
var infinite = math.Inf(1)

// rightsPool recycles the per-grid-point right-child buffers compute
// uses. compute recurses through dp, so the buffer cannot live on the
// engine; a pool keeps the recursion allocation-free past warm-up.
var rightsPool = sync.Pool{New: func() any { return new([]float64) }}

// pendPool recycles compute's per-node pendingSweep buffers, for the
// same reason.
var pendPool = sync.Pool{New: func() any { return new([]int) }}

// node identifies one subproblem. Interval endpoints are stored as
// indices into the engine's t1val/t2val tables, not as raw times, so
// the memo table can be a flat array instead of a hash map.
type node struct {
	i1, i2 int // indices into t1val / t2val
	k      int // own jobs: the k earliest-deadline jobs of list(t1, t2)
	l1, l2 int // boundary levels at t1 and t2
	c2     int // context jobs stacked at t2 by ancestors
}

// entry is one memo record: the optimal cost of a node plus the choice
// that attains it, for reconstruction. The zero value (choiceUnset)
// means "not yet computed", which is what makes the flat table work.
type entry struct {
	cost   float64
	tp     int32 // grid index of j_k's time for choiceB
	lp     int16 // left child's own level at t′ (choiceB); -1 for a point left child
	lpp    int16 // right child's level at t′+1 (choiceB)
	choice int8
}

// engine runs the shared DP for one cost model. It is generic over the
// concrete model type so the per-state model calls compile to direct
// (inlinable) calls rather than interface dispatch on the hot path.
type engine[M costModel] struct {
	*base
	model M
	memo  memoStore

	// Branch-and-bound accounting. pruned counts the dp calls answered
	// by the bound check (or a memoized prune marker) without expanding
	// the node; expanded counts compute invocations. Atomics: the
	// parallel root's workers share the engine.
	pruned, expanded atomic.Int64

	// t1val[i] is the left endpoint encoded by index i: t1val[0] is the
	// virtual start (grid[0]−1) and t1val[g+1] is grid[g]+1, the right
	// child's start after a split at grid[g]. t2val[g] is grid[g] and
	// t2val[G] is the virtual end (grid[G−1]+1). Both lists are strictly
	// increasing, so index pairs identify intervals uniquely.
	t1val, t2val []int

	// relGI[j] is the grid index of job j's release. Every release is a
	// grid point (under FullGrid too), so pendingAfter's "released after
	// grid[gi]" is "relGI[j] > gi", which pendingSweep buckets.
	relGI []int
}

func newEngine[M costModel](b *base, m M) *engine[M] {
	g := len(b.grid)
	e := &engine[M]{
		base:  b,
		model: m,
		t1val: make([]int, g+1),
		t2val: make([]int, g+1),
	}
	// Fragments big enough for the intra-fragment parallel root get the
	// concurrent sharded memo; everything else uses the pooled flat
	// table (strictly cheaper single-threaded).
	if e.parallelRoot() {
		e.memo = newShardedMemo(g, len(b.jobs), b.p)
	} else {
		e.memo = newMemoTable(g, len(b.jobs), b.p)
	}
	e.t1val[0] = b.grid[0] - 1
	for i, t := range b.grid {
		e.t1val[i+1] = t + 1
		e.t2val[i] = t
	}
	e.t2val[g] = b.grid[g-1] + 1
	e.relGI = make([]int, len(b.jobs))
	for j, job := range b.jobs {
		e.relGI[j] = sort.SearchInts(b.grid, job.Release)
	}
	return e
}

// parallelRootMinJobs gates intra-fragment parallelism: below this many
// jobs a fragment solves in milliseconds and the coordination (sharded
// memo locking, goroutine fan-out) costs more than it buys. Every
// correctness suite that compares state counts across solve paths runs
// far below the threshold, so their counters stay deterministic.
const parallelRootMinJobs = 192

// parallelRoot reports whether this engine distributes the root node's
// case-B grid points across worker goroutines.
func (e *engine[M]) parallelRoot() bool {
	return len(e.jobs) >= parallelRootMinJobs && runtime.GOMAXPROCS(0) > 1 &&
		denseIndexSpaceFits(len(e.grid), len(e.jobs), e.p)
}

// run solves the root problem covering the whole horizon and replays
// the optimal choices into job→time placements. budget is the
// branch-and-bound cut: a strict upper bound on the cost run is allowed
// to report (callers pass one ulp above a feasible incumbent, or
// infinite to disable pruning). A run that comes back !ok under a
// finite budget only certifies cost ≥ budget, not infeasibility.
func (e *engine[M]) run(n int, budget float64) (cost float64, placed map[int]int, states int, ok bool) {
	root := node{i1: 0, i2: len(e.grid), k: n}
	if e.parallelRoot() {
		cost = e.dpRootParallel(root, budget)
	} else {
		cost = e.dp(root, budget)
	}
	states = e.memo.entries()
	if cost >= infinite {
		return 0, nil, states, false
	}
	placed = make(map[int]int, n)
	e.rebuild(root, placed)
	return cost, placed, states, true
}

// dp returns the minimum cost of the node's subproblem, memoized, or
// infinite when that cost is at least budget (pruning). A finite return
// is always the exact optimum: candidates are only ever discarded once
// they provably meet the caller's threshold, so pruning changes which
// states are expanded but never a reported cost or placement.
//
// Memoized entries come in two kinds. Exact entries (choice other than
// choicePruned) are budget-independent and served to every caller.
// Prune markers record, in cost, the largest budget under which the
// node was cut; they answer only callers whose budget is no larger —
// a looser caller re-expands the node, because "≥ old budget" says
// nothing about "≥ new budget".
//
// Field ranges are checked before the memo is consulted: the flat table
// encodes nodes positionally, so an out-of-range field (possible only
// through a buggy costModel) must never reach index computation, where
// it would alias another state's entry.
func (e *engine[M]) dp(nd node, budget float64) float64 {
	if nd.l1 < 0 || nd.l1 > e.p || nd.l2 < 0 || nd.l2 > e.p || nd.c2 < 0 || nd.c2 > e.p {
		return infinite
	}
	if r, ok := e.memo.get(nd); ok {
		if r.choice != choicePruned {
			return r.cost
		}
		if budget <= r.cost {
			e.pruned.Add(1)
			return infinite
		}
	}
	if lb := e.model.nodeLB(nd.k, nd.l1, nd.l2, nd.c2, e.t1val[nd.i1], e.t2val[nd.i2]); lb >= budget {
		e.pruned.Add(1)
		// The admissible bound holds unconditionally, so the marker can
		// record cost ≥ lb — stronger than the triggering budget — and
		// absorb future visits up to lb without recomputing the bound.
		e.memo.put(nd, entry{cost: lb, choice: choicePruned})
		return infinite
	}
	e.expanded.Add(1)
	r := e.compute(nd, budget)
	if r.cost < budget || budget >= infinite {
		// Exact: every candidate either evaluated exactly or proved ≥ the
		// running threshold. (Under an infinite budget nothing prunes, so
		// an infinite result is genuine infeasibility — memoize it as
		// such rather than as a marker.)
		e.memo.put(nd, r)
		return r.cost
	}
	// The result met the budget, but pruned candidates may hide the true
	// optimum below it: record only "cost ≥ budget".
	e.memo.put(nd, entry{cost: budget, choice: choicePruned})
	return infinite
}

// compute is the recursion shared by every objective: base cases, case
// A (j_k joins the context at t2) and case B (j_k at a grid time
// t′ < t2, splitting the interval into two children that own
// (t1, t′] and (t′+1, t2] while the parent pays for the boundary
// crossing into t′+1).
//
// budget propagates the branch-and-bound threshold: children are
// evaluated under min(budget, best so far), so a child that cannot lead
// to an improvement returns infinite instead of expanding. The recorded
// choice is unchanged by pruning: it is the first candidate attaining
// the node optimum, and for that candidate the threshold at evaluation
// time strictly exceeds the optimum, hence exceeds both children's true
// costs — they evaluate exactly, the candidate is accepted, and later
// candidates never displace it (strict < comparison).
func (e *engine[M]) compute(nd node, budget float64) entry {
	t1, t2 := e.t1val[nd.i1], e.t2val[nd.i2]
	k, l1, l2, c2 := nd.k, nd.l1, nd.l2, nd.c2
	inf := entry{cost: infinite, choice: choiceNone}

	if !e.model.stateOK(l1, l2, c2) { // field ranges already vetted by dp
		return inf
	}

	// Base: no own jobs.
	if k == 0 {
		if cost, ok := e.model.emptyCost(l1, l2, c2, t1, t2); ok {
			return entry{cost: cost, choice: choiceEmpty}
		}
		return inf
	}

	list := e.list(t1, t2)
	if k > len(list) {
		return inf
	}

	// Base: single time unit. All k own jobs execute at t1 == t2.
	if t1 == t2 {
		if !e.model.pointOK(k, l1, l2, c2) {
			return inf
		}
		return entry{cost: 0, choice: choicePoint}
	}

	jk := list[k-1]
	job := e.jobs[jk]
	best := inf

	// Case A: j_k at t′ = t2, joining the context stack. The threshold
	// below both the caller's budget and the best found so far; best is
	// still empty here, so the budget alone applies.
	if job.Deadline >= t2 {
		if cl2, cc2, ok := e.model.caseAChild(l2, c2); ok {
			if c := e.dp(node{nd.i1, nd.i2, k - 1, l1, cl2, cc2}, budget); c < best.cost {
				best = entry{cost: c, choice: choiceA}
			}
		}
	}

	// Case B: j_k at a grid time t′ with t1 ≤ t′ < t2.
	giLo, giHi := e.splitRange(job, t1, t2)
	if giLo < giHi {
		rights := lease[float64](&rightsPool, e.p+1)
		pend := lease[int](&pendPool, giHi-giLo)
		e.pendingSweep(list, k, giLo, *pend)
		for gi := giLo; gi < giHi; gi++ {
			best = e.evalSplit(nd, gi, (*pend)[gi-giLo], t1, t2, budget, best, rights)
		}
		pendPool.Put(pend)
		rightsPool.Put(rights)
	}
	return best
}

// pendingSweep sets pend[x] = pendingAfter(e.jobs, list, k,
// grid[giLo+x]) for every x < len(pend) in one O(k + len(pend)) pass:
// each of the first k−1 jobs lands in the bucket of the last candidate
// it is pending after, and suffix sums turn the buckets into counts.
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

// splitRange is the grid index range of j_k's case-B candidate times:
// grid times within its window, strictly before t2.
func (e *engine[M]) splitRange(job sched.Job, t1, t2 int) (int, int) {
	lo := job.Release
	if lo < t1 {
		lo = t1
	}
	hi := job.Deadline
	if hi > t2-1 {
		hi = t2 - 1
	}
	return e.gridRange(lo, hi)
}

// lease takes a buffer of length n from pool, which must hold *[]T;
// the caller puts it back when done. Contents are unspecified.
func lease[T any](pool *sync.Pool, n int) *[]T {
	bp := pool.Get().(*[]T)
	if cap(*bp) < n {
		*bp = make([]T, n)
	} else {
		*bp = (*bp)[:n]
	}
	return bp
}

// evalSplit evaluates every case-B candidate that places j_k at grid
// index gi, where i of j_k's k−1 predecessors are released after t′
// and go right (pendingAfter), folding improvements into best (strict
// <, so the first candidate attaining the minimum is the one recorded)
// and returns the result. thr0 is the caller's branch-and-bound budget; children are
// evaluated under min(thr0, best so far). Under an infinite thr0
// pruning is disabled outright — children inherit the infinite budget
// rather than the running best, reproducing the unbounded recursion
// exactly (and keeping PrunedStates at 0, as NoPrune promises).
//
// The serial recursion calls this with best threaded across all of the
// node's grid points; the parallel root calls it per gi with an empty
// best and merges in gi order, which lands on the identical entry.
func (e *engine[M]) evalSplit(nd node, gi, i, t1, t2 int, thr0 float64, best entry, rights *[]float64) entry {
	k, l1, l2, c2 := nd.k, nd.l1, nd.l2, nd.c2
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

	// The right child of a split at t′ = grid[gi] does not depend on the
	// profile height busy at t′, so its dp value is shared by every busy
	// (and by the point-left branch). rights caches it per next, filled
	// lazily — −1 marks "not yet evaluated" (costs are ≥ 0) — so the
	// hoist adds no dp calls the unhoisted loop would not have made.
	rs := *rights
	for x := range rs {
		rs[x] = -1
	}

	// Context jobs stacked at t2 by ancestors count toward the
	// profile at t′+1 exactly when t′+1 = t2.
	ctx := 0
	if tp+1 == t2 {
		ctx = c2
	}

	// Candidate-level cuts: a candidate costs left + right + boundary
	// with boundary ≥ 0, so when the sum of the children's admissible
	// bounds already meets the threshold the candidate is skipped before
	// any dp call. Skipped candidates are provably ≥ the threshold in
	// force at the time — which only shrinks — so no strict improvement
	// is ever discarded and the first-attainment choice is untouched.
	// Crucially the skip writes no memo state: children that do get
	// evaluated still see the full thr(), so their entries stay exactly
	// as reusable as in the uncut recursion (budget-keyed markers at
	// per-candidate budgets would wreck memo reuse for continuous
	// costs). rLB is the right child's bound minimized over next, the
	// per-busy left bound is computed in the loop.
	rLB := 0.0
	if thr0 < infinite {
		rLB = infinite
		rt1, rt2 := e.t1val[gi+1], e.t2val[nd.i2]
		for next := 0; next <= e.p; next++ {
			if lb := e.model.nodeLB(i, next, l2, c2, rt1, rt2); lb < rLB {
				rLB = lb
			}
		}
	}

	if tp == t1 {
		// j_k and the kL left jobs all sit at t1; the left child is
		// the single-point base with j_k as context.
		pl1, pl2, ok := e.model.pointLeft(l1, kL)
		if !ok {
			return best
		}
		if thr0 < infinite && e.model.nodeLB(kL, pl1, pl2, 1, e.t1val[nd.i1], e.t2val[gi])+rLB >= thr() {
			return best
		}
		left := e.dp(node{nd.i1, gi, kL, pl1, pl2, 1}, thr())
		if left >= infinite {
			return best
		}
		for next := 0; next <= e.p; next++ {
			right := rs[next]
			if right < 0 {
				right = e.dp(node{gi + 1, nd.i2, i, next, l2, c2}, thr())
				rs[next] = right
			}
			if right >= infinite {
				continue
			}
			if c := left + right + e.model.boundary(l1, next, ctx); c < best.cost {
				best = entry{cost: c, choice: choiceB, tp: int32(gi), lp: -1, lpp: int16(next)}
			}
		}
		return best
	}

	for busy := 1; busy <= e.p; busy++ { // profile height at t′, including j_k
		lv := e.model.leftLevel(busy)
		if thr0 < infinite && e.model.nodeLB(kL, l1, lv, 1, e.t1val[nd.i1], e.t2val[gi])+rLB >= thr() {
			continue
		}
		left := e.dp(node{nd.i1, gi, kL, l1, lv, 1}, thr())
		if left >= infinite {
			continue
		}
		for next := 0; next <= e.p; next++ {
			right := rs[next]
			if right < 0 {
				right = e.dp(node{gi + 1, nd.i2, i, next, l2, c2}, thr())
				rs[next] = right
			}
			if right >= infinite {
				continue
			}
			if c := left + right + e.model.boundary(busy, next, ctx); c < best.cost {
				best = entry{cost: c, choice: choiceB, tp: int32(gi), lp: int16(lv), lpp: int16(next)}
			}
		}
	}
	return best
}

// dpRootParallel is dp specialized to the root node, with the case-B
// grid points fanned out across worker goroutines. The memo is the
// concurrent shardedMemo (newEngine pairs the two), so the workers'
// recursions share subproblem results exactly as the serial order does.
func (e *engine[M]) dpRootParallel(nd node, budget float64) float64 {
	e.expanded.Add(1)
	r := e.rootParallel(nd, budget)
	if r.cost < budget || budget >= infinite {
		e.memo.put(nd, r)
		return r.cost
	}
	e.memo.put(nd, entry{cost: budget, choice: choicePruned})
	return infinite
}

// rootParallel is compute for the root node with its case-B grid points
// evaluated concurrently. Exactness and bit-identity with the serial
// order rest on three facts:
//
//   - Each grid point is evaluated by evalSplit with an empty running
//     best and a private threshold thr0 = min(budget, one ulp above the
//     shared incumbent snapshot). The snapshot is always ≥ the node
//     optimum (it is a min over exact feasible candidate costs), so the
//     task owning the optimal grid point sees thr0 strictly above its
//     own minimum and computes it exactly; any other task returns
//     either its exact local minimum or infinite — never a finite
//     non-optimal underestimate.
//
//   - The merge folds results in the serial candidate order (case A
//     first, then grid points ascending) with strict <, so the recorded
//     choice is the same first-attaining candidate the serial loop
//     records, making reconstruction — and the reported schedule —
//     bit-identical.
//
//   - Shared memo writes are safe to race: exact entries for a state
//     are byte-identical, and mergeEntry keeps exact entries over prune
//     markers and larger marker budgets over smaller.
//
// Under an infinite budget (NoPrune) the incumbent is ignored entirely
// so every task expands fully, preserving PrunedStates == 0.
func (e *engine[M]) rootParallel(nd node, budget float64) entry {
	t1, t2 := e.t1val[nd.i1], e.t2val[nd.i2]
	k := nd.k
	list := e.list(t1, t2) // warm the interval cache before sharing it
	jk := list[k-1]
	job := e.jobs[jk]

	best := entry{cost: infinite, choice: choiceNone}

	// Case A: j_k at t′ = t2, joining the context stack — a single child,
	// evaluated up front so its cost seeds the shared incumbent.
	if job.Deadline >= t2 {
		if cl2, cc2, ok := e.model.caseAChild(nd.l2, nd.c2); ok {
			if c := e.dp(node{nd.i1, nd.i2, k - 1, nd.l1, cl2, cc2}, budget); c < best.cost {
				best = entry{cost: c, choice: choiceA}
			}
		}
	}

	giLo, giHi := e.splitRange(job, t1, t2)
	tasks := giHi - giLo
	if tasks <= 0 {
		return best
	}

	// incumbent is the best finite candidate cost published so far, as
	// Float64bits (costs are non-negative and finite, so bit order is
	// value order). It tightens task thresholds but never decides the
	// answer — the deterministic merge below does that.
	var incumbent atomic.Uint64
	incumbent.Store(math.Float64bits(best.cost))
	publish := func(c float64) {
		bits := math.Float64bits(c)
		for {
			cur := incumbent.Load()
			if math.Float64frombits(cur) <= c {
				return
			}
			if incumbent.CompareAndSwap(cur, bits) {
				return
			}
		}
	}

	results := make([]entry, tasks)
	var cursor atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	if workers > tasks {
		workers = tasks
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			rights := lease[float64](&rightsPool, e.p+1)
			defer rightsPool.Put(rights)
			for {
				x := int(cursor.Add(1)) - 1
				if x >= tasks {
					return
				}
				thr0 := budget
				if budget < infinite {
					if snap := math.Float64frombits(incumbent.Load()); snap < infinite {
						if t := math.Nextafter(snap, infinite); t < thr0 {
							thr0 = t
						}
					}
				}
				gi := giLo + x
				local := e.evalSplit(nd, gi, pendingAfter(e.jobs, list, k, e.grid[gi]), t1, t2, thr0,
					entry{cost: infinite, choice: choiceNone}, rights)
				results[x] = local
				if local.cost < infinite {
					publish(local.cost)
				}
			}
		}()
	}
	wg.Wait()

	for _, r := range results {
		if r.cost < best.cost {
			best = r
		}
	}
	return best
}

// rebuild replays the recorded choices, recording job→time placements.
func (e *engine[M]) rebuild(nd node, placed map[int]int) {
	r, ok := e.memo.get(nd)
	if !ok || r.choice == choiceNone || r.choice == choicePruned {
		// Pruned entries never lie on an optimal path: the path's nodes
		// were all evaluated under thresholds above their true costs.
		return
	}
	t1, t2 := e.t1val[nd.i1], e.t2val[nd.i2]
	k := nd.k
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
		cl2, cc2, _ := e.model.caseAChild(nd.l2, nd.c2)
		e.rebuild(node{nd.i1, nd.i2, k - 1, nd.l1, cl2, cc2}, placed)
	case choiceB:
		list := e.list(t1, t2)
		jk := list[k-1]
		gi := int(r.tp)
		tp := e.grid[gi]
		placed[jk] = tp
		i := pendingAfter(e.jobs, list, k, tp)
		kL := k - 1 - i
		if r.lp < 0 {
			pl1, pl2, _ := e.model.pointLeft(nd.l1, kL)
			e.rebuild(node{nd.i1, gi, kL, pl1, pl2, 1}, placed)
		} else {
			e.rebuild(node{nd.i1, gi, kL, nd.l1, int(r.lp), 1}, placed)
		}
		e.rebuild(node{gi + 1, nd.i2, i, int(r.lpp), nd.l2, nd.c2}, placed)
	}
}
