package core

import (
	"errors"
	"math"

	"repro/internal/heur"
	"repro/internal/sched"
)

// gapModel plugs the span-count objective (Theorem 1) into the shared
// engine. Levels are busy-processor counts: l1/l2 count the subproblem's
// own jobs at the boundaries, and the c2 context jobs stack on top of
// l2, so l2 + c2 is the true profile height at t2. The cost of a state
// is Σ_{u ∈ (t1, t2]} (l_u − l_{u−1})_+, the number of span starts.
type gapModel struct{ p int }

func (m gapModel) stateOK(l1, l2, c2 int) bool { return l2+c2 <= m.p }

// emptyCost: all own levels are zero; the c2 context jobs at t2 start c2
// fresh spans when the interval has interior width.
func (m gapModel) emptyCost(l1, l2, c2, t1, t2 int) (float64, bool) {
	if l1 != 0 || l2 != 0 {
		return 0, false
	}
	if t2 > t1 {
		return float64(c2), true
	}
	return 0, true
}

func (m gapModel) pointOK(k, l1, l2, c2 int) bool {
	return l1 == k && l2 == k && k+c2 <= m.p
}

// caseAChild: j_k moves from the own jobs into the context stack at t2.
func (m gapModel) caseAChild(l2, c2 int) (int, int, bool) {
	return l2 - 1, c2 + 1, l2 >= 1
}

// leftLevel: the left child's own level at t′ excludes j_k, which it
// sees as context.
func (m gapModel) leftLevel(busy int) int { return busy - 1 }

// pointLeft: j_k and the kL left jobs all sit at t1, so the boundary
// level there must be exactly kL+1.
func (m gapModel) pointLeft(l1, kL int) (int, int, bool) {
	return kL, kL, l1 == kL+1
}

// boundary: span starts at t′+1 — profile rises from level to
// next + ctx.
func (m gapModel) boundary(level, next, ctx int) float64 {
	if d := next + ctx - level; d > 0 {
		return float64(d)
	}
	return 0
}

// nodeLB: the subinterval restriction of the heuristic tier's span
// bound (admissibility argued at heur.SubSpanLB).
func (m gapModel) nodeLB(k, l1, l2, c2, t1, t2 int) float64 {
	return float64(heur.SubSpanLB(k, l1, l2, c2, t1, t2))
}

// Options tunes the gap DP for ablation experiments (E15). The zero
// value is the production configuration.
type Options struct {
	// FullGrid replaces the anchor candidate grid (release/deadline
	// neighbourhoods, Baptiste's Prop 2.1) with every integer time of
	// the horizon. The optimum is unchanged; the state count grows.
	FullGrid bool

	// NoPrune disables branch-and-bound pruning (no incumbent budget, no
	// per-node bound checks; the greedy still runs for its feasibility
	// verdict). The optimum and the reconstructed schedule are
	// identical either way — pruning only skips subproblems that
	// provably cannot improve on the incumbent — so this exists for
	// ablation and for the fuzz lanes that certify that identity.
	NoPrune bool
}

// incumbentBudget turns a feasible heuristic cost into the engine's
// branch-and-bound budget: one ulp above the incumbent, so a node is cut
// only when its bound strictly exceeds every cost the incumbent still
// allows (an optimum equal to the incumbent stays below the budget and
// is found exactly).
func incumbentBudget(ub float64) float64 {
	return math.Nextafter(ub, infinite)
}

// SolveGaps computes an optimal minimum-wake-up schedule for a
// one-interval p-processor instance (Theorem 1). It returns
// ErrInfeasible when no feasible schedule exists.
func SolveGaps(in sched.Instance) (Result, error) {
	return SolveGapsOpt(in, Options{})
}

// SolveGapsOpt is SolveGaps with explicit tuning options.
func SolveGapsOpt(in sched.Instance, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	n := len(in.Jobs)
	if n == 0 {
		return Result{Schedule: sched.Schedule{Procs: in.Procs}}, nil
	}
	// The greedy is an exact feasibility oracle (heur package doc): its
	// verdict is this solve's, and its schedule seeds the budget.
	s, err := heur.Greedy(in)
	if errors.Is(err, heur.ErrInfeasible) {
		return Result{}, ErrInfeasible
	}
	if err != nil {
		return Result{}, err
	}
	b := newBase(in)
	if opts.FullGrid {
		lo, hi := in.TimeHorizon()
		b.grid = make([]int, 0, hi-lo+1)
		for t := lo; t <= hi; t++ {
			b.grid = append(b.grid, t)
		}
	}
	budget := infinite
	if !opts.NoPrune {
		budget = incumbentBudget(float64(s.Spans()))
	}
	e := newEngine(b, gapModel{p: b.p})
	cost, placed, states, ok := e.run(n, budget)
	if !ok && budget < infinite {
		// Defensive: the greedy cost upper-bounds the optimum, so a
		// bounded run cannot come back empty unless the incumbent was
		// somehow below the optimum; re-solve unbounded rather than
		// misreport infeasibility.
		cost, placed, states, ok = e.run(n, infinite)
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
	spans := int(cost)
	return Result{
		Spans:          spans,
		Gaps:           spans - 1,
		Schedule:       schedule,
		States:         states,
		PrunedStates:   e.pruned,
		ExpandedStates: e.expanded,
	}, nil
}
