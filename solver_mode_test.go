package gapsched

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workload"
)

// modeCost extracts the configured objective's cost from a Solution.
func modeCost(s Solver, sol Solution) float64 {
	return s.Objective.Cost(sol)
}

// TestModeHeuristicSandwich: heuristic solutions must be feasible and
// sandwiched by their own certificate around the exact optimum, for
// both objectives, through every pipeline shape (prep on and off,
// cached and not).
func TestModeHeuristicSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 120; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(9), 1+rng.Intn(3), 4+rng.Intn(30), 1+rng.Intn(5))
		for _, base := range []Solver{
			{},
			{Objective: ObjectivePower, Alpha: float64(rng.Intn(9)) / 2},
		} {
			exact := base
			want, err := exact.Solve(in)
			if err != nil {
				t.Fatalf("exact: %v (jobs %v)", err, in.Jobs)
			}
			for _, cfg := range []Solver{
				{Mode: ModeHeuristic},
				{Mode: ModeHeuristic, NoPreprocess: true},
				{Mode: ModeHeuristic, Cache: NewFragmentCache(64)},
			} {
				h := base
				h.Mode, h.NoPreprocess, h.Cache = cfg.Mode, cfg.NoPreprocess, cfg.Cache
				got, err := h.Solve(in)
				if err != nil {
					t.Fatalf("heuristic: %v (jobs %v)", err, in.Jobs)
				}
				if err := got.Schedule.Validate(in); err != nil {
					t.Fatalf("heuristic schedule invalid: %v", err)
				}
				opt, cost := modeCost(base, want), modeCost(base, got)
				if got.LowerBound > opt+1e-9 || cost < opt-1e-9 {
					t.Fatalf("sandwich violated: lb %v opt %v heur %v (jobs %v procs %d cfg %+v)",
						got.LowerBound, opt, cost, in.Jobs, in.Procs, cfg)
				}
				if got.Mode != ModeHeuristic {
					t.Fatalf("solution mode %v, want heuristic", got.Mode)
				}
				if got.HeuristicFragments != got.Subinstances {
					t.Fatalf("heuristic fragments %d, want all %d", got.HeuristicFragments, got.Subinstances)
				}
				if got.States != 0 {
					t.Fatalf("heuristic solve reported %d DP states", got.States)
				}
			}
		}
	}
}

// TestModeAutoGenerousBudgetIsExact: with an unbounded budget ModeAuto
// must be bit-identical to ModeExact — costs, schedules, counters.
func TestModeAutoGenerousBudgetIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(10), 1+rng.Intn(3), 4+rng.Intn(40), 1+rng.Intn(6))
		for _, base := range []Solver{
			{},
			{Objective: ObjectivePower, Alpha: 2.5},
		} {
			auto := base
			auto.Mode, auto.StateBudget = ModeAuto, math.MaxInt
			want, errE := base.Solve(in)
			got, errA := auto.Solve(in)
			if (errE == nil) != (errA == nil) {
				t.Fatalf("auto err %v, exact err %v", errA, errE)
			}
			if errE != nil {
				continue
			}
			if modeCost(base, got) != modeCost(base, want) {
				t.Fatalf("auto cost %v, exact %v (jobs %v)", modeCost(base, got), modeCost(base, want), in.Jobs)
			}
			if !reflect.DeepEqual(got.Schedule, want.Schedule) {
				t.Fatalf("auto schedule differs from exact (jobs %v)", in.Jobs)
			}
			if got.HeuristicFragments != 0 {
				t.Fatalf("auto under unbounded budget used the heuristic on %d fragments", got.HeuristicFragments)
			}
			if got.LowerBound != modeCost(base, want) {
				t.Fatalf("auto-exact lower bound %v, want the optimum %v", got.LowerBound, modeCost(base, want))
			}
			if got.Mode != ModeAuto {
				t.Fatalf("solution mode %v, want auto", got.Mode)
			}
		}
	}
}

// TestModeAutoNegativeBudgetIsHeuristic: a negative budget admits
// nothing to the exact tier, so ModeAuto degenerates to ModeHeuristic
// with identical costs and certificates.
func TestModeAutoNegativeBudgetIsHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(9), 1+rng.Intn(2), 4+rng.Intn(30), 1+rng.Intn(5))
		auto := Solver{Mode: ModeAuto, StateBudget: -1}
		h := Solver{Mode: ModeHeuristic}
		a, errA := auto.Solve(in)
		b, errB := h.Solve(in)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("auto err %v, heuristic err %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.Spans != b.Spans || a.LowerBound != b.LowerBound {
			t.Fatalf("auto(-1) %d/%v, heuristic %d/%v (jobs %v)", a.Spans, a.LowerBound, b.Spans, b.LowerBound, in.Jobs)
		}
		if a.HeuristicFragments != a.Subinstances {
			t.Fatalf("auto(-1) solved %d of %d fragments heuristically", a.HeuristicFragments, a.Subinstances)
		}
	}
}

// TestModeAutoMixesTiers: on an instance pairing many small clusters
// with one oversized single-processor fragment, a budget between their
// estimates must send exactly the big fragment to the heuristic and
// keep the small ones exact; under the default budget the big fragment
// is admitted too, so the whole solution is exact and certifies
// itself.
func TestModeAutoMixesTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var jobs []sched.Job
	for c := 0; c < 4; c++ { // small exact-friendly clusters
		base := c * 100
		for k := 0; k < 4; k++ {
			r := base + rng.Intn(4)
			jobs = append(jobs, sched.Job{Release: r, Deadline: r + 3})
		}
	}
	big := workload.StressDense(rng, 300, 1) // one huge fragment
	for _, j := range big.Jobs {
		jobs = append(jobs, sched.Job{Release: j.Release + 1000, Deadline: j.Deadline + 1000})
	}
	in := NewInstance(jobs)

	// Pick a budget between the small fragments' estimates and the big
	// one's, derived from the decomposition itself.
	pl := prep.ForGaps(in)
	smallMax, bigEst := 0, 0
	for _, sub := range pl.Subs {
		est := prep.StateEstimate(sub.Instance)
		if len(sub.Instance.Jobs) < 100 {
			smallMax = max(smallMax, est)
		} else {
			bigEst = est
		}
	}
	if smallMax == 0 || bigEst <= smallMax {
		t.Fatalf("test instance degenerate: smallMax %d bigEst %d", smallMax, bigEst)
	}

	mixed, err := Solver{Mode: ModeAuto, StateBudget: smallMax}.Solve(in)
	if err != nil {
		t.Fatalf("auto(mid budget): %v", err)
	}
	if mixed.HeuristicFragments != 1 || mixed.PolyFragments != 0 {
		t.Fatalf("auto(mid budget) heur=%d poly=%d, want exactly the big fragment heuristic and no poly",
			mixed.HeuristicFragments, mixed.PolyFragments)
	}
	if err := mixed.Schedule.Validate(in); err != nil {
		t.Fatalf("mixed schedule invalid: %v", err)
	}
	if mixed.LowerBound <= 0 || float64(mixed.Spans) < mixed.LowerBound {
		t.Fatalf("mixed certificate inverted: spans %d lb %v", mixed.Spans, mixed.LowerBound)
	}
	if mixed.States == 0 {
		t.Fatal("exact fragments reported no DP states")
	}

	// Default budget: the big single-processor fragment is priced by the
	// single-machine frontier and admitted, so the whole solution is
	// exact and equals ModeExact's.
	sol, err := Solver{Mode: ModeAuto}.Solve(in)
	if err != nil {
		t.Fatalf("auto(default budget): %v", err)
	}
	want, err := Solver{}.Solve(in)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	if sol.HeuristicFragments != 0 || sol.PolyFragments != 0 {
		t.Fatalf("auto(default budget) heur=%d poly=%d, want every fragment on the DP engine",
			sol.HeuristicFragments, sol.PolyFragments)
	}
	if sol.Spans != want.Spans || float64(sol.Spans) != sol.LowerBound {
		t.Fatalf("auto(default budget) spans %d lb %v, exact spans %d", sol.Spans, sol.LowerBound, want.Spans)
	}
}

// TestModeAutoAdmissionBoundary pins the two-way gate's edges on a
// single dense fragment, single- and multiprocessor: a StateBudget of
// exactly the fragment's estimate admits it to the exact tier, one
// less sends it to the heuristic.
func TestModeAutoAdmissionBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, p := range []int{1, 2} {
		in := NewMultiprocInstance(workload.StressDense(rng, 200, p).Jobs, p)
		pl := prep.ForGaps(in)
		if len(pl.Subs) != 1 {
			t.Fatalf("p=%d: dense instance split into %d fragments, want 1", p, len(pl.Subs))
		}
		est := prep.StateEstimate(pl.Subs[0].Instance)
		solve := func(budget int) Solution {
			t.Helper()
			sol, err := Solver{Mode: ModeAuto, StateBudget: budget}.Solve(in)
			if err != nil {
				t.Fatalf("p=%d auto(StateBudget %d): %v", p, budget, err)
			}
			if err := sol.Schedule.Validate(in); err != nil {
				t.Fatalf("p=%d schedule invalid (StateBudget %d): %v", p, budget, err)
			}
			return sol
		}
		admitted := solve(est)
		if admitted.HeuristicFragments != 0 || admitted.States == 0 {
			t.Fatalf("p=%d budget == estimate: heur=%d states=%d, want the DP engine",
				p, admitted.HeuristicFragments, admitted.States)
		}
		if float64(admitted.Spans) != admitted.LowerBound {
			t.Fatalf("p=%d exact fragment not certified: spans %d lb %v", p, admitted.Spans, admitted.LowerBound)
		}
		rejected := solve(est - 1)
		if rejected.HeuristicFragments != rejected.Subinstances {
			t.Fatalf("p=%d budget == estimate−1: heur=%d of %d, want all heuristic",
				p, rejected.HeuristicFragments, rejected.Subinstances)
		}
		if float64(rejected.Spans) < rejected.LowerBound {
			t.Fatalf("p=%d heuristic certificate inverted: spans %d lb %v", p, rejected.Spans, rejected.LowerBound)
		}
	}
}

// TestModeAutoAdmissionMatchesTwoBackendRule: at DefaultStateBudget the
// single admission estimate must give every fragment the verdict the
// earlier two-backend rule gave it — exact when the pruning-discounted
// index-space shape G²·(n+1)·(p+1)³/32 fits the budget, or when the
// fragment has one effective processor and the single-machine frontier
// G·(n+1) fits it — so routing every exact fragment to one backend
// moves no fragment between the exact tier and the heuristic. The
// fragments come from dense, bursty and feasible random instances with
// p ∈ {1, 2, 3} and n up to 6500; only estimates are computed.
func TestModeAutoAdmissionMatchesTwoBackendRule(t *testing.T) {
	satMul := func(a, b int) int {
		if a != 0 && b > math.MaxInt/a {
			return math.MaxInt
		}
		return a * b
	}
	budget := DefaultStateBudget
	twoBackendRule := func(fr sched.Instance) bool {
		n := len(fr.Jobs)
		p := min(fr.Procs, n)
		g := prep.GridSize(fr)
		shape := g
		for _, dim := range []int{g, n + 1, p + 1, p + 1, p + 1} {
			shape = satMul(shape, dim)
		}
		return shape/32 <= budget || p == 1 && satMul(g, n+1) <= budget
	}
	rt, err := Solver{Mode: ModeAuto}.runtime()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	type key struct {
		p     int
		exact bool
	}
	verdicts := map[key]int{}
	frags := 0
	for trial := 0; trial < 300; trial++ {
		// Half the sizes are uniform, which reaches the single-machine
		// boundary (a dense p = 1 fragment crosses it near n = 5800),
		// and half log-uniform, which covers the multiprocessor
		// boundary (n of a few hundred) and small fragments.
		p := 1 + trial%3
		n := 1 + rng.Intn(6500)
		if trial%2 == 1 {
			n = 1 + int(math.Exp(rng.Float64()*math.Log(6500)))
		}
		var in sched.Instance
		switch trial / 3 % 3 {
		case 0:
			in = workload.StressDense(rng, n, p)
		case 1:
			in = workload.Bursty(rng, n, 1+rng.Intn(4), 1+n/(1+rng.Intn(4)), rng.Intn(n/p+1), 1+rng.Intn(40))
			in.Procs = p
		default:
			in = workload.FeasibleOneInterval(rng, n, p, 1+2*n/p+rng.Intn(n+1), 1+rng.Intn(60))
		}
		for _, sub := range prep.ForGaps(in).Subs {
			fr := sub.Instance
			_, tag := rt.tier(fr)
			exact := tag&heurTag == 0
			if want := twoBackendRule(fr); exact != want {
				t.Fatalf("fragment n=%d p=%d (estimate %d): exact=%v, two-backend rule %v",
					len(fr.Jobs), fr.Procs, prep.StateEstimate(fr), exact, want)
			}
			verdicts[key{min(fr.Procs, len(fr.Jobs)), exact}]++
			frags++
		}
	}
	if frags < 300 {
		t.Fatalf("only %d fragments drawn", frags)
	}
	// Both verdicts must occur at every processor count, or the
	// comparison says nothing about the boundary.
	for p := 1; p <= 3; p++ {
		if verdicts[key{p, true}] == 0 || verdicts[key{p, false}] == 0 {
			t.Fatalf("p=%d: verdicts %v, want both exact and heuristic fragments", p, verdicts)
		}
	}
}

// TestModeTiersShareCacheSafely: a cache shared between an exact and a
// heuristic Solver must never serve one tier's fragment solution to the
// other — solving the same instance through both, in both orders, must
// keep the exact answer optimal.
func TestModeTiersShareCacheSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 40; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(8), 1, 4+rng.Intn(24), 1+rng.Intn(5))
		want, err := Solver{}.Solve(in)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		cache := NewFragmentCache(256)
		hs := Solver{Mode: ModeHeuristic, Cache: cache}
		es := Solver{Cache: cache}
		// Heuristic first (possibly suboptimal entries in the cache),
		// then exact through the same cache.
		h1, err := hs.Solve(in)
		if err != nil {
			t.Fatalf("heuristic: %v", err)
		}
		e1, err := es.Solve(in)
		if err != nil {
			t.Fatalf("exact-cached: %v", err)
		}
		if e1.Spans != want.Spans {
			t.Fatalf("exact through shared cache got %d spans, want %d (heur had %d; jobs %v)",
				e1.Spans, want.Spans, h1.Spans, in.Jobs)
		}
		// And the heuristic's own repeat must hit its tier's entries
		// without changing its answer.
		h2, err := hs.Solve(in)
		if err != nil {
			t.Fatalf("heuristic repeat: %v", err)
		}
		if h2.Spans != h1.Spans || h2.LowerBound != h1.LowerBound {
			t.Fatalf("cached heuristic drifted: %d/%v then %d/%v", h1.Spans, h1.LowerBound, h2.Spans, h2.LowerBound)
		}
		if h2.CacheHits == 0 && h2.Subinstances > 0 {
			t.Fatal("heuristic repeat missed the cache entirely")
		}
	}
}

// TestModeValidation: an out-of-range mode must fail identically
// through Solve, SolveBatch, and Open.
func TestModeValidation(t *testing.T) {
	bad := Solver{Mode: Mode(99)}
	in := NewInstance([]sched.Job{{Release: 0, Deadline: 1}})
	_, errSolve := bad.Solve(in)
	if errSolve == nil {
		t.Fatal("Solve accepted mode 99")
	}
	res := bad.SolveBatch([]Instance{in})
	if res[0].Err == nil || res[0].Err.Error() != errSolve.Error() {
		t.Fatalf("SolveBatch error %v, want %v", res[0].Err, errSolve)
	}
	if _, err := bad.Open(1); err == nil || err.Error() != errSolve.Error() {
		t.Fatalf("Open error %v, want %v", err, errSolve)
	}
}

// TestParseMode round-trips every mode name and rejects garbage.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeExact, ModeHeuristic, ModeAuto} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModeExact {
		t.Fatalf("ParseMode(\"\") = %v, %v", m, err)
	}
	if _, err := ParseMode("fast"); err == nil {
		t.Fatal("ParseMode accepted \"fast\"")
	}
	if s := Mode(99).String(); s != "Mode(99)" {
		t.Fatalf("Mode(99).String() = %q", s)
	}
}

// TestExactSolutionsCertifyThemselves: every exact solve's LowerBound
// must equal its own optimal cost, for both objectives, solo and
// batched.
func TestExactSolutionsCertifyThemselves(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ins := make([]Instance, 16)
	for i := range ins {
		ins[i] = workload.FeasibleOneInterval(rng, 1+rng.Intn(8), 1+rng.Intn(2), 4+rng.Intn(24), 1+rng.Intn(5))
	}
	for _, s := range []Solver{{}, {Objective: ObjectivePower, Alpha: 3}} {
		for i, r := range s.SolveBatch(ins) {
			if r.Err != nil {
				t.Fatalf("batch[%d]: %v", i, r.Err)
			}
			if r.Solution.LowerBound != modeCost(s, r.Solution) {
				t.Fatalf("exact solution %d: lb %v != cost %v", i, r.Solution.LowerBound, modeCost(s, r.Solution))
			}
			if r.Solution.HeuristicFragments != 0 || r.Solution.Mode != ModeExact {
				t.Fatalf("exact solution %d carries heuristic markers: %+v", i, r.Solution)
			}
		}
	}
}

// TestHeuristicSessionMatchesOneShot: a heuristic-mode session must
// stay bit-identical to a from-scratch heuristic solve of its snapshot
// after every delta, certificates included.
func TestHeuristicSessionMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, s := range []Solver{
		{Mode: ModeHeuristic},
		{Mode: ModeHeuristic, Objective: ObjectivePower, Alpha: 3},
		{Mode: ModeAuto, StateBudget: -1},
	} {
		sess, err := s.Open(1)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var live []int
		for d := 0; d < 40; d++ {
			if d%3 != 2 || len(live) == 0 {
				r := rng.Intn(120)
				id, err := sess.Add(Job{Release: r, Deadline: r + rng.Intn(6)})
				if err != nil {
					t.Fatalf("Add: %v", err)
				}
				live = append(live, id)
			} else {
				k := rng.Intn(len(live))
				if err := sess.Remove(live[k]); err != nil {
					t.Fatalf("Remove: %v", err)
				}
				live = append(live[:k], live[k+1:]...)
			}
			snapshot := sess.Instance()
			want, wantErr := s.Solve(snapshot)
			got, gotErr := sess.Resolve()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("session err %v, scratch err %v", gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrInfeasible) {
					t.Fatalf("session err %v, want ErrInfeasible", gotErr)
				}
				continue
			}
			if modeCost(s, got) != modeCost(s, want) || got.LowerBound != want.LowerBound {
				t.Fatalf("session %v/%v, scratch %v/%v (jobs %v)",
					modeCost(s, got), got.LowerBound, modeCost(s, want), want.LowerBound, snapshot.Jobs)
			}
			if got.HeuristicFragments != want.HeuristicFragments || got.Mode != s.Mode {
				t.Fatalf("session markers %d/%v, scratch %d", got.HeuristicFragments, got.Mode, want.HeuristicFragments)
			}
		}
		sess.Close()
	}
}
