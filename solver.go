package gapsched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fragcache"
	"repro/internal/heur"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/sched"
)

// Objective selects what a Solver minimizes.
type Objective int

const (
	// ObjectiveGaps minimizes the total number of spans — sleep→active
	// transitions — across processors (Theorem 1).
	ObjectiveGaps Objective = iota
	// ObjectivePower minimizes total power consumption under the
	// transition cost Alpha, with idle-active bridging (Theorem 2).
	ObjectivePower
)

func (o Objective) String() string {
	switch o {
	case ObjectiveGaps:
		return "gaps"
	case ObjectivePower:
		return "power"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Mode selects which solving tier serves an instance's fragments.
type Mode int

const (
	// ModeExact (the default) runs the exact DP engine on every
	// fragment: optimal costs, polynomial but steep in fragment size.
	ModeExact Mode = iota
	// ModeHeuristic runs the near-linear greedy tier (internal/heur) on
	// every fragment: always-feasible schedules with certified
	// optimality gaps (Solution.LowerBound ≤ OPT ≤ cost), serving
	// instance sizes the exact tier cannot.
	ModeHeuristic
	// ModeAuto picks per fragment between the two tiers: the exact DP
	// engine when the fragment's admission estimate
	// (prep.StateEstimate) is within Solver.StateBudget, the heuristic
	// otherwise. Mixed instances thus get exact answers wherever the
	// exact tier is affordable, and the Solution's LowerBound stays
	// tight (exact fragments contribute their optimal cost to it).
	ModeAuto
)

func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeHeuristic:
		return "heuristic"
	case ModeAuto:
		return "auto"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Cost returns sol's value under objective o, in the objective's own
// units: the span count (as a float) for ObjectiveGaps, the power for
// ObjectivePower. It pairs with Solution.LowerBound, which is
// expressed in the same units, so sol's certified optimality gap is
// o.Cost(sol) − sol.LowerBound.
func (o Objective) Cost(sol Solution) float64 {
	if o == ObjectivePower {
		return sol.Power
	}
	return float64(sol.Spans)
}

// ParseMode parses the mode names used by the CLIs and the wire format
// — "exact", "heuristic", "auto" — with "" meaning ModeExact.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return ModeExact, nil
	case "heuristic":
		return ModeHeuristic, nil
	case "auto":
		return ModeAuto, nil
	}
	return 0, fmt.Errorf("gapsched: unknown mode %q (want exact, heuristic or auto)", s)
}

// DefaultStateBudget is the ModeAuto exact-tier admission bound used
// when Solver.StateBudget is zero. It admits multiprocessor fragments
// of a few hundred dense jobs and single-processor fragments of a few
// thousand (the E21 and E23 admission tables), while the huge
// fragments that would stall the engine go to the heuristic.
const DefaultStateBudget = 1 << 25

// Solver is the configured entry point to the solving pipeline:
// preprocessing (instance decomposition and coordinate compression, see
// internal/prep), the solving tiers — the exact DP engine
// (internal/core) and the certified greedy heuristic (internal/heur),
// selected by Mode — an optional canonical-fragment solution cache,
// and, for SolveBatch, a bounded worker pool fed at fragment
// granularity. The zero value minimizes gaps exactly with
// preprocessing enabled and no cache.
type Solver struct {
	// Objective selects the cost model. Default: ObjectiveGaps.
	Objective Objective
	// Alpha is the sleep→active transition cost; used by
	// ObjectivePower. Must be non-negative.
	Alpha float64
	// NoPreprocess skips the prep layer and hands the raw (validated)
	// instance to the solving tier in one piece. Useful for ablation;
	// results are identical either way.
	NoPreprocess bool
	// Workers bounds SolveBatch concurrency. Zero or negative means
	// GOMAXPROCS.
	Workers int
	// CacheSize, when positive and Cache is nil, gives each SolveBatch
	// call a transient fragment cache with roughly that capacity, so
	// duplicate fragments within one batch are solved once. Zero or
	// negative disables the transient cache.
	CacheSize int
	// Cache, when non-nil, is a persistent canonical-fragment solution
	// cache consulted by both Solve and SolveBatch and shared across
	// calls (and across Solvers — entries are keyed by objective,
	// alpha, and solving tier, so differently configured Solvers can
	// share one cache without ever conflating an exact fragment
	// solution with a heuristic one). Takes precedence over CacheSize.
	Cache *FragmentCache
	// Mode selects the solving tier: ModeExact (default), ModeHeuristic,
	// or ModeAuto, which decides per fragment using StateBudget.
	Mode Mode
	// StateBudget is ModeAuto's admission bound for the exact tier: a
	// fragment is solved exactly when its admission estimate
	// (prep.StateEstimate, which prices single- and multiprocessor
	// fragments differently) is at most this. Zero means
	// DefaultStateBudget; a negative budget disables the exact tier and
	// sends every fragment to the heuristic. Ignored by ModeExact and
	// ModeHeuristic.
	StateBudget int
}

// Solution is the unified outcome of a Solver run.
type Solution struct {
	// Spans is the optimal number of spans (wake-ups) summed over
	// processors. For ObjectivePower it reports the spans of the
	// returned schedule, which need not be span-minimal.
	Spans int
	// Gaps is Spans−1 (clamped at 0), the classic gap count on one
	// processor.
	Gaps int
	// Power is the optimal power consumption; set for ObjectivePower.
	Power float64
	// Schedule is an optimal schedule for the configured objective.
	Schedule Schedule
	// States counts memoized DP subproblems, summed over sub-instances:
	// the effective size of the exact computation. Fragments served
	// from the cache report the states their solve cost when it ran, so
	// the count is independent of cache hits.
	States int
	// Subinstances is the number of independent fragments the prep
	// layer solved (1 when preprocessing is off or nothing splits, 0
	// for the empty instance).
	Subinstances int
	// CacheHits counts the fragments of this instance that were served
	// from the fragment cache (including waits on another worker's
	// in-flight solve of the same fragment). Always 0 when no cache is
	// configured.
	CacheHits int
	// ResolvedFragments and ReusedFragments are set by Session.Resolve:
	// the fragments re-solved because a delta dirtied them, and the
	// fragments whose stored solutions were reused without re-solving.
	// Both are 0 for one-shot Solve/SolveBatch results.
	ResolvedFragments int
	ReusedFragments   int
	// Mode records the Solver.Mode that produced this solution.
	Mode Mode
	// LowerBound is a certified lower bound on the optimal cost of the
	// solved instance, in the objective's own units (spans for
	// ObjectiveGaps, power for ObjectivePower): LowerBound ≤ OPT ≤ the
	// reported cost. Fragments solved exactly contribute their optimal
	// cost; fragments served by the heuristic tier contribute the
	// internal/heur certificates (Hall/density span bound,
	// active-units + forced-transitions power bound). For a pure exact
	// solve it therefore equals the optimal cost itself.
	LowerBound float64
	// HeuristicFragments counts the fragments served by the heuristic
	// tier; 0 for ModeExact, Subinstances for ModeHeuristic, and
	// in between for ModeAuto on mixed instances.
	HeuristicFragments int
	// PolyFragments is always 0: the DP engine serves every exact
	// fragment (Subinstances − HeuristicFragments of them).
	//
	// Deprecated: the facade has one exact backend; the field stays for
	// callers that still read it.
	PolyFragments int
	// CompetitiveRatio, CommittedJobs, and CommittedCost are set by
	// Resolve on online (commit-only) sessions and zero everywhere
	// else. CompetitiveRatio is the measured ratio of the online run's
	// cost over the revealed prefix (committed units plus the current
	// run-out) to the certified LowerBound of the same prefix's offline
	// optimum — the certificate keeps the ratio honest (never
	// understated) even when the mirror solve is heuristic. It is ≥ 1
	// up to the certificate's slack. CommittedJobs counts the jobs
	// placed irrevocably; CommittedCost is the committed prefix's cost
	// in the objective's units.
	CompetitiveRatio float64
	CommittedJobs    int
	CommittedCost    float64
	// PrunedStates counts exact-tier DP subproblems answered by the
	// branch-and-bound lower bound without being expanded, summed over
	// fragments. ExpandedStates counts the subproblems the recursion
	// actually expanded; together with States they size the bounded
	// search against the full DP. Like States, fragments served from the
	// cache report the counters of the solve that populated the entry,
	// so both are independent of cache hits; heuristic fragments
	// contribute 0.
	PrunedStates   int
	ExpandedStates int
	// Timings is the per-stage wall-clock breakdown of this solve —
	// where the pipeline actually spent its time. Unlike the state
	// counters it measures this call: fragments served from the cache
	// contribute their lookup/wait time to Timings.Cache, not the
	// original solve's cost, and a Session.Resolve reports only the
	// fragments it re-solved.
	Timings Timings
}

// Timings is a solve's per-stage wall-clock breakdown. The stages
// mirror the pipeline: preprocessing (validation + decomposition),
// fragment-cache service (lookups that avoided a backend solve,
// singleflight waits included), the two solving tiers, and
// reassembly (fragment schedules → instance schedule + validation).
// Durations are summed over fragments/sub-steps, so on a parallel
// SolveBatch they report aggregate work, not elapsed wall-clock.
type Timings struct {
	Prep      time.Duration
	Cache     time.Duration
	SolveDP   time.Duration
	SolveHeur time.Duration
	Assemble  time.Duration
}

// Solve returns the summed backend solve time across both tiers.
func (t Timings) Solve() time.Duration {
	return t.SolveDP + t.SolveHeur
}

// Total returns the summed duration of every recorded stage.
func (t Timings) Total() time.Duration {
	return t.Prep + t.Cache + t.Solve() + t.Assemble
}

// add folds one fragment's outcome into the breakdown.
func (t *Timings) add(r incr.Result) {
	if r.Hit {
		t.Cache += r.Dur
		return
	}
	if r.Heur {
		t.SolveHeur += r.Dur
	} else {
		t.SolveDP += r.Dur
	}
}

// FragmentCache is a sharded, bounded (LRU per shard) cache of
// canonical-fragment solutions with in-flight deduplication: concurrent
// solves of identical fragments are performed once. It is safe for
// concurrent use and may be shared across Solvers and batches; entries
// are keyed by the fragment's canonical form plus objective and alpha
// (see internal/prep.CanonicalKey), so a hit is always an exact match.
// A value is the canonical fragment's incr.Result, schedule in
// canonical job order; infeasible outcomes are cached too, so repeated
// infeasible duplicates are not re-solved.
type FragmentCache struct {
	c *fragcache.Cache[incr.Result]
}

// NewFragmentCache builds a fragment cache holding at most about
// capacity fragment solutions (the bound is enforced per shard, so it
// is approximate; see internal/fragcache).
func NewFragmentCache(capacity int) *FragmentCache {
	return &FragmentCache{c: fragcache.New[incr.Result](capacity)}
}

// CacheStats snapshots a FragmentCache's effectiveness counters.
type CacheStats = fragcache.Stats

// Stats snapshots the cache counters accumulated over every solve that
// used this cache.
func (fc *FragmentCache) Stats() CacheStats { return fc.c.Stats() }

// Len returns the number of fragment solutions currently stored.
func (fc *FragmentCache) Len() int { return fc.c.Len() }

// heurTag marks heuristic-tier entries in the cache key's tag byte, so
// the tiers can never serve each other's solutions even when Solvers
// of different modes share one FragmentCache.
const heurTag = 0x80

// objectiveRuntime binds the objective- and mode-specific pieces of
// the pipeline after the configuration has been validated once: how to
// decompose an instance, how to solve one fragment on each tier, which
// tier a fragment goes to, and how to interpret the accumulated cost.
// Sharing it between Solve and SolveBatch is what makes their
// validation and results uniform.
type objectiveRuntime struct {
	tag        byte // cache-key objective tag
	alpha      float64
	mode       Mode
	budget     int // resolved ModeAuto exact-tier admission bound
	plan       func(sched.Instance) *prep.Plan
	solveExact func(sched.Instance) incr.Result
	solveHeur  func(sched.Instance) incr.Result
	finish     func(*Solution, float64)
}

// tier returns the solve function and cache-key tag of the tier
// serving one fragment under the configured mode. ModeAuto sends the
// fragment to the exact DP engine when its admission estimate fits
// StateBudget and to the heuristic otherwise; the estimate is never
// negative, so a negative StateBudget sends every fragment to the
// heuristic (auto with a negative budget ≡ heuristic). The estimate
// depends only on the job multiset and processor count, so the
// decision is identical for a fragment and its canonical form.
func (rt *objectiveRuntime) tier(fr sched.Instance) (func(sched.Instance) incr.Result, byte) {
	if rt.mode == ModeHeuristic || rt.mode == ModeAuto && prep.StateEstimate(fr) > rt.budget {
		return rt.solveHeur, rt.tag | heurTag
	}
	return rt.solveExact, rt.tag
}

// heurErr maps the heuristic tier's infeasibility onto the facade's
// ErrInfeasible, so callers see one error identity regardless of tier.
func heurErr(err error) error {
	if errors.Is(err, heur.ErrInfeasible) {
		return ErrInfeasible
	}
	return err
}

// runtime validates the Solver configuration — Alpha, Objective, and
// Mode — in one place, so Solve and SolveBatch report identical errors
// for identical misconfigurations regardless of objective path.
func (s Solver) runtime() (objectiveRuntime, error) {
	if s.Alpha < 0 {
		return objectiveRuntime{}, fmt.Errorf("gapsched: negative transition cost alpha %v", s.Alpha)
	}
	switch s.Mode {
	case ModeExact, ModeHeuristic, ModeAuto:
	default:
		return objectiveRuntime{}, fmt.Errorf("gapsched: unknown mode %v", s.Mode)
	}
	budget := s.StateBudget
	if budget == 0 {
		budget = DefaultStateBudget
	}
	switch s.Objective {
	case ObjectiveGaps:
		return objectiveRuntime{
			tag:    byte(ObjectiveGaps),
			mode:   s.Mode,
			budget: budget,
			plan:   prep.ForGaps,
			solveExact: func(fr sched.Instance) incr.Result {
				res, err := core.SolveGaps(fr)
				return incr.Result{Cost: float64(res.Spans), Schedule: res.Schedule,
					States: res.States, Pruned: res.PrunedStates, Expanded: res.ExpandedStates,
					LB: float64(res.Spans), Err: err}
			},
			solveHeur: func(fr sched.Instance) incr.Result {
				res, err := heur.SolveGapsFragment(fr)
				return incr.Result{Cost: res.Cost, Schedule: res.Schedule,
					LB: res.LowerBound, Heur: true, Err: heurErr(err)}
			},
			finish: func(sol *Solution, cost float64) {
				sol.Spans = int(cost)
				sol.Gaps = max(sol.Spans-1, 0)
			},
		}, nil
	case ObjectivePower:
		alpha := s.Alpha
		return objectiveRuntime{
			tag:    byte(ObjectivePower),
			alpha:  alpha,
			mode:   s.Mode,
			budget: budget,
			plan:   func(in sched.Instance) *prep.Plan { return prep.ForPower(in, alpha) },
			solveExact: func(fr sched.Instance) incr.Result {
				res, err := core.SolvePower(fr, alpha)
				return incr.Result{Cost: res.Power, Schedule: res.Schedule,
					States: res.States, Pruned: res.PrunedStates, Expanded: res.ExpandedStates,
					LB: res.Power, Err: err}
			},
			solveHeur: func(fr sched.Instance) incr.Result {
				res, err := heur.SolvePowerFragment(fr, alpha)
				return incr.Result{Cost: res.Cost, Schedule: res.Schedule,
					LB: res.LowerBound, Heur: true, Err: heurErr(err)}
			},
			finish: func(sol *Solution, cost float64) {
				sol.Power = cost
				sol.Spans = sol.Schedule.Spans()
				sol.Gaps = max(sol.Spans-1, 0)
			},
		}, nil
	}
	return objectiveRuntime{}, fmt.Errorf("gapsched: unknown objective %v", s.Objective)
}

// preparedInstance is one instance after the prep phase: its fragments
// ready to solve (each independently) and slots for their results. For
// NoPreprocess the whole raw instance is the single "fragment".
type preparedInstance struct {
	in      Instance
	plan    *prep.Plan // nil when NoPreprocess
	frags   []sched.Instance
	err     error // validation error; no fragments when set
	prepDur time.Duration
	results []incr.Result
	// failed is set once any fragment errors, so batch workers skip the
	// instance's remaining fragments instead of solving results that
	// finishInstance will discard. Skipping cannot change which error
	// is reported for an uncanceled solve: fragments of a validated
	// instance only ever fail with ErrInfeasible, so the first error in
	// fragment order is the same error regardless of which fragments
	// actually ran. (Once the batch context is done, fragments fail
	// with the context's error instead, and the reported error may be
	// either — both mean "not solved".)
	failed atomic.Bool
}

// prepare runs the prep phase for one instance, timing it (the prep
// duration lands in Solution.Timings and, when a trace is attached, a
// StagePrep span).
func (s Solver) prepare(in Instance, rt objectiveRuntime, tr *obs.Trace) *preparedInstance {
	start := time.Now()
	p := &preparedInstance{in: in}
	defer func() {
		p.prepDur = time.Since(start)
		tr.Span(obs.StagePrep, "", start, p.prepDur)
	}()
	if err := in.Validate(); err != nil {
		p.err = err
		return p
	}
	if s.NoPreprocess {
		p.frags = []sched.Instance{in}
	} else {
		p.plan = rt.plan(in)
		p.frags = make([]sched.Instance, len(p.plan.Subs))
		for i, sub := range p.plan.Subs {
			p.frags[i] = sub.Instance
		}
	}
	p.results = make([]incr.Result, len(p.frags))
	return p
}

// solveFragment solves one fragment on the tier the configured mode
// assigns it, through the cache when one is configured. Cached
// solves run on the canonical form of the fragment (jobs sorted in
// compressed coordinates) and the stored schedule is mapped back
// through the canonicalization permutation, so a hit returns a
// schedule of the fragment as given; each tier's entries carry a
// distinct key tag, so tiers never serve each other's solutions.
// Every call is timed: the elapsed wall-clock lands in the result's
// Dur and, when tr is non-nil, in a per-fragment span — a
// backend-tagged StageSolve span for a real solve, a StageCache span
// for a hit (singleflight waits on another worker's solve included).
func (s Solver) solveFragment(rt objectiveRuntime, cache *FragmentCache, fr sched.Instance, tr *obs.Trace) incr.Result {
	start := time.Now()
	solve, tag := rt.tier(fr)
	var res incr.Result
	if cache == nil {
		res = solve(fr)
	} else {
		canon, perm := prep.Canonicalize(fr)
		key := prep.CanonicalKey(canon, tag, rt.alpha)
		val, hit := cache.c.Do(key, func() incr.Result { return solve(canon) })
		res = val
		res.Hit = hit
		if val.Err == nil {
			// Canonical job i is fragment job perm[i]; their windows
			// agree, so rerouting the slots yields a valid fragment
			// schedule. The cached slice is shared and read-only; build a
			// fresh one.
			slots := make([]sched.Assignment, len(val.Schedule.Slots))
			for i, a := range val.Schedule.Slots {
				slots[perm[i]] = a
			}
			res.Schedule = sched.Schedule{Procs: val.Schedule.Procs, Slots: slots}
		}
	}
	res.Dur = time.Since(start)
	if tr != nil {
		name, backend := obs.StageSolve, "dp"
		if res.Hit {
			name = obs.StageCache
		}
		if res.Heur {
			backend = "heuristic"
		}
		tr.Span(name, backend, start, res.Dur)
	}
	return res
}

// fold folds fragment results, in fragment order, into the Solution of
// the instance they partition: Subinstances and Mode set, and cost,
// LowerBound, the state counters, HeuristicFragments, CacheHits and
// Timings summed — the fixed summation order keeps float results
// bit-identical no matter which workers solved what or which fragments
// a session reused. It returns the summed cost, for
// objectiveRuntime.finish once the caller has set the schedule, and
// the first error in fragment order, matching a sequential solve
// exactly.
func fold(results []incr.Result, mode Mode) (sol Solution, cost float64, err error) {
	sol = Solution{Subinstances: len(results), Mode: mode}
	for _, r := range results {
		if r.Err != nil {
			return Solution{}, 0, r.Err
		}
		cost += r.Cost
		sol.LowerBound += r.LB
		sol.States += r.States
		sol.PrunedStates += r.Pruned
		sol.ExpandedStates += r.Expanded
		if r.Heur {
			sol.HeuristicFragments++
		}
		if r.Hit {
			sol.CacheHits++
		}
		sol.Timings.add(r)
	}
	return sol, cost, nil
}

// finishInstance folds an instance's fragment results (all populated
// unless a fragment errored, after which siblings may be zero-value
// placeholders) into its Solution and reassembles the fragment
// schedules onto the original instance. The reassembly is timed into
// Timings.Assemble (and a StageAssemble span when tr is non-nil).
func (s Solver) finishInstance(p *preparedInstance, rt objectiveRuntime, tr *obs.Trace) (Solution, error) {
	if p.err != nil {
		return Solution{}, p.err
	}
	sol, cost, err := fold(p.results, s.Mode)
	if err != nil {
		return Solution{}, err
	}
	sol.Timings.Prep = p.prepDur
	if p.plan == nil {
		sol.Schedule = p.results[0].Schedule
	} else {
		parts := make([]sched.Schedule, len(p.results))
		for i, r := range p.results {
			parts[i] = r.Schedule
		}
		start := time.Now()
		schedule, err := p.plan.Assemble(parts)
		if err == nil {
			err = schedule.Validate(p.in)
		}
		sol.Timings.Assemble = time.Since(start)
		tr.Span(obs.StageAssemble, "", start, sol.Timings.Assemble)
		if err != nil {
			return Solution{}, err
		}
		sol.Schedule = schedule
	}
	rt.finish(&sol, cost)
	return sol, nil
}

// Solve runs the configured pipeline on one instance. It consults
// s.Cache when set (a transient CacheSize cache is a batch-level
// feature and does not apply here). Solve is SolveContext with a
// background context.
func (s Solver) Solve(in Instance) (Solution, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext is Solve with cancellation and deadline support: the
// context is observed at fragment granularity, so a solve of a
// many-fragment instance stops between fragments once ctx is done and
// returns ctx.Err() (wrapped). A fragment already running in the DP
// engine is completed; unit fragments are fast, so cancellation
// latency is bounded by the heaviest single fragment. A successful
// return is always a complete, bit-identical Solve result — partial
// solutions are never returned.
func (s Solver) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	rt, err := s.runtime()
	if err != nil {
		return Solution{}, err
	}
	return s.solveOne(ctx, in, rt, s.Cache)
}

// ctxErr converts a done context into the facade's error form.
func ctxErr(ctx context.Context) error {
	return fmt.Errorf("gapsched: solve aborted: %w", context.Cause(ctx))
}

func (s Solver) solveOne(ctx context.Context, in Instance, rt objectiveRuntime, cache *FragmentCache) (Solution, error) {
	tr := obs.FromContext(ctx)
	p := s.prepare(in, rt, tr)
	for i, fr := range p.frags {
		if ctx.Err() != nil {
			return Solution{}, ctxErr(ctx)
		}
		p.results[i] = s.solveFragment(rt, cache, fr, tr)
		if p.results[i].Err != nil {
			break // finishInstance reports the first error in order
		}
	}
	return s.finishInstance(p, rt, tr)
}

// BatchResult pairs one instance's Solution with its error; exactly one
// of the two is meaningful.
type BatchResult struct {
	Solution Solution
	Err      error
}

// task addresses one fragment in the flattened batch work queue.
type task struct {
	inst, frag int
}

// SolveBatch solves every instance with the configured pipeline,
// distributing work across a pool bounded by Workers (default
// GOMAXPROCS) at *fragment* granularity: all instances are preprocessed
// up front, their fragments flattened into one work queue, and each
// instance's solution assembled as its last fragment completes. A
// skewed instance therefore cannot serialize the batch behind one
// worker, and — when a cache is configured via Cache or CacheSize —
// identical fragments recurring across the batch are solved once.
//
// Results align positionally with ins and are identical to per-instance
// Solve calls (first-error semantics and bit-exact costs included),
// independent of Workers and of cache configuration — except CacheHits,
// whose attribution across instances depends on which worker reaches a
// duplicate fragment first (and on CacheSize, which Solve ignores).
// Instances are independent; a failure in one does not disturb the
// others.
//
// SolveBatch is SolveBatchContext with a background context.
func (s Solver) SolveBatch(ins []Instance) []BatchResult {
	return s.SolveBatchContext(context.Background(), ins)
}

// SolveBatchContext is SolveBatch with cancellation and deadline
// support. The context is observed at fragment granularity: once ctx
// is done, workers stop picking up fragments, already-running
// fragments are completed, and every instance whose solve did not
// finish reports ctx's error (instances whose fragments all completed
// before the cancellation still report their full solution). A nil
// error in a BatchResult therefore always accompanies a complete,
// bit-identical solution.
func (s Solver) SolveBatchContext(ctx context.Context, ins []Instance) []BatchResult {
	out := make([]BatchResult, len(ins))
	if len(ins) == 0 {
		return out
	}
	rt, err := s.runtime()
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	cache := s.Cache
	if cache == nil && s.CacheSize > 0 {
		cache = NewFragmentCache(s.CacheSize)
	}

	// Prep phase: decompose every instance, flatten the fragments. One
	// batch shares the context's trace, so its spans interleave across
	// instances; per-instance Timings stay exact regardless.
	tr := obs.FromContext(ctx)
	prepped := make([]*preparedInstance, len(ins))
	queue := make([]task, 0, len(ins))
	for i, in := range ins {
		prepped[i] = s.prepare(in, rt, tr)
		for f := range prepped[i].frags {
			queue = append(queue, task{inst: i, frag: f})
		}
	}

	// Instances with nothing to solve (validation failures, empty
	// plans) finish immediately; the rest finish when their fragment
	// counter drains.
	remaining := make([]atomic.Int32, len(ins))
	for i, p := range prepped {
		if len(p.frags) == 0 {
			out[i].Solution, out[i].Err = s.finishInstance(p, rt, tr)
		} else {
			remaining[i].Store(int32(len(p.frags)))
		}
	}

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queue) {
		workers = len(queue)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				qi := int(next.Add(1)) - 1
				if qi >= len(queue) {
					return
				}
				tk := queue[qi]
				p := prepped[tk.inst]
				if !p.failed.Load() {
					var res incr.Result
					if ctx.Err() != nil {
						res = incr.Result{Err: ctxErr(ctx)}
					} else {
						res = s.solveFragment(rt, cache, p.frags[tk.frag], tr)
					}
					p.results[tk.frag] = res
					if res.Err != nil {
						p.failed.Store(true)
					}
				}
				// The worker that drains the counter observes every
				// sibling fragment's result (atomic Add orders the
				// writes) and assembles the instance.
				if remaining[tk.inst].Add(-1) == 0 {
					out[tk.inst].Solution, out[tk.inst].Err = s.finishInstance(p, rt, tr)
				}
			}
		}()
	}
	wg.Wait()
	return out
}
