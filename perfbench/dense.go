package main

import (
	"fmt"
	"math/rand"
	"time"

	gapsched "repro"
	"repro/internal/heur"
	"repro/internal/sched"
	"repro/internal/workload"
)

// solve-dense: one caller, closed loop, through gapsched.Solver in
// ModeAuto with default budgets and no cache, on large single-fragment
// StressDense instances: p=1 lanes (routed to the polynomial backend)
// and p=2 lanes (the DP engine with its parallel root), each solved
// under gaps and power.
const denseAlpha = 2.0

// denseLane is one instance shape of solve-dense.
type denseLane struct{ n, p int }

var denseLanes = []denseLane{{600, 1}, {1000, 1}, {300, 2}, {400, 2}}

// denseOp is one facade call of a pass.
type denseOp struct {
	lane   denseLane
	in     sched.Instance
	solver gapsched.Solver
}

func (o denseOp) name() string {
	return fmt.Sprintf("n=%d/p=%d/%v", o.lane.n, o.lane.p, o.solver.Objective)
}

// densePassSets is how many distinct instance sets a run cycles
// through, one per pass: a run averages over several instances of each
// lane instead of riding on one.
const densePassSets = 16

// denseInputs generates sets instance sets from seed, each one instance
// per lane under both objectives; scale divides every lane size
// (self-tests).
func denseInputs(seed int64, scale, sets int) [][]denseOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]denseOp, sets)
	for k := range out {
		for _, l := range denseLanes {
			l.n /= scale
			in := workload.StressDense(rng, l.n, l.p)
			for _, obj := range []gapsched.Objective{gapsched.ObjectiveGaps, gapsched.ObjectivePower} {
				s := gapsched.Solver{Mode: gapsched.ModeAuto, Objective: obj}
				if obj == gapsched.ObjectivePower {
					s.Alpha = denseAlpha
				}
				out[k] = append(out[k], denseOp{lane: l, in: in, solver: s})
			}
		}
	}
	return out
}

// instances lists the distinct instances of sets, for fingerprints.
func instances(sets [][]denseOp) []sched.Instance {
	var ins []sched.Instance
	for _, ops := range sets {
		for i := 0; i < len(ops); i += 2 {
			ins = append(ins, ops[i].in)
		}
	}
	return ins
}

// lowerBound is the heuristic tier's certified lower bound on op's
// optimal cost.
func (o denseOp) lowerBound() float64 {
	if o.solver.Objective == gapsched.ObjectivePower {
		return heur.PowerLowerBound(o.in, o.solver.Alpha)
	}
	return float64(heur.SpanLowerBound(o.in))
}

func denseScale(short bool) int {
	if short {
		return 10
	}
	return 1
}

// checkSolution verifies a returned schedule on its own: valid for the
// instance, and carrying the cost the solution reports.
func checkSolution(in sched.Instance, s gapsched.Solver, sol gapsched.Solution) error {
	if err := sol.Schedule.Validate(in); err != nil {
		return err
	}
	if s.Objective == gapsched.ObjectivePower {
		if got := sol.Schedule.PowerCost(s.Alpha); got != sol.Power {
			return fmt.Errorf("schedule power %v, reported %v", got, sol.Power)
		}
	} else if got := sol.Schedule.Spans(); got != sol.Spans {
		return fmt.Errorf("schedule spans %d, reported %d", got, sol.Spans)
	}
	return nil
}

func runSolveDense(e *env) (*report, error) {
	r := newReport()
	scale := denseScale(e.short)
	sets := denseInputs(e.seed, scale, densePassSets)
	fp := fingerprint(instances(sets))
	r.notes["fingerprint"] = fp
	r.line("inputs workload=solve-dense seed=%d fingerprint=%s lanes=%v scale=1/%d ops_per_pass=%d instance_sets=%d",
		e.seed, fp, denseLanes, scale, len(sets[0]), len(sets))

	// Set-up is the first facade calls of a fresh process state: one
	// warm-up solve per op shape at a quarter of its size, three times.
	warm := denseInputs(e.seed+1, 4*scale, 1)[0]
	_, setup, err := setupMedian(setupReps, func() (struct{}, error) {
		for _, op := range warm {
			if _, err := op.solver.Solve(op.in); err != nil {
				return struct{}{}, fmt.Errorf("warm-up %s: %w", op.name(), err)
			}
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, "median of 5 warm-up rounds (one quarter-size solve per op)")

	// Each pass (every op once, on the next instance set) is one window
	// of the measured phase.
	type served struct {
		op   denseOp
		cost float64
		lat  float64
	}
	var got []served
	var ws []window
	start := time.Now()
	for time.Since(start).Seconds() < e.seconds {
		var w window
		cpu0, t0 := selfCPU(), time.Now()
		for _, op := range sets[len(ws)%len(sets)] {
			t0 := time.Now()
			sol, err := op.solver.Solve(op.in)
			d := time.Since(t0)
			r.attempted++
			if err == nil {
				err = checkSolution(op.in, op.solver, sol)
			}
			if err != nil {
				r.failed++
				r.fail("%s: %v", op.name(), err)
				continue
			}
			w.lat = append(w.lat, ms(d))
			got = append(got, served{op, op.solver.Objective.Cost(sol), ms(d)})
		}
		w.cpu, w.dur = selfCPU()-cpu0, time.Since(t0)
		ws = append(ws, w)
	}
	ps, err := readProcStat(0)
	if err != nil {
		return nil, err
	}
	r.windowed(ws, true)
	r.set("peak_rss_mb", ps.peakMB, "benchmark process VmHWM, read before the reference solves")
	r.notes["cpu_ms_per_op"] += " (the facade runs in the benchmark process)"

	// A valid schedule whose cost equals the certified lower bound is
	// optimal. Where the bound is not tight the op is solved again with
	// ModeExact, which sends the p=1 lanes through the DP engine instead
	// of poly. Both run after the measured phase, so they do not inflate
	// its peak RSS.
	certified := 0
	for _, s := range got {
		want := s.op.lowerBound()
		if s.cost == want {
			certified++
		} else {
			ref := s.op.solver
			ref.Mode = gapsched.ModeExact
			sol, err := ref.Solve(s.op.in)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", s.op.name(), err)
			}
			want = ref.Objective.Cost(sol)
		}
		if s.cost != want {
			r.failed++
			r.fail("%s: cost %v, reference %v", s.op.name(), s.cost, want)
		}
	}
	r.errorRate(fmt.Sprintf("(%d costs certified by the lower bound, the rest by ModeExact)", certified))
	// Every pass runs each op kind once, so the samples are an equal
	// mixture of eight kinds whose latencies differ by up to 6x. The
	// mixture's median falls between two kinds and jumps with their
	// order, so the median op latency is taken as the median of the
	// kinds' own medians.
	var kindMedians, all []float64
	for _, s := range got {
		all = append(all, s.lat)
	}
	tv, tp := tail(all)
	r.set("latency_tail_ms", tv, fmt.Sprintf("percentile=p%d over all samples=%d (under 100 samples no higher percentile has ten beyond it)", tp, len(all)))
	for _, op := range sets[0] {
		var l []float64
		for _, s := range got {
			if s.op.name() == op.name() {
				l = append(l, s.lat)
			}
		}
		kindMedians = append(kindMedians, median(l))
		r.line("report lane %-22s p50_ms=%.3f samples=%d", op.name(), median(l), len(l))
	}
	r.set("latency_p50_ms", median(kindMedians), fmt.Sprintf("median over %d op kinds of each kind's median, samples=%d", len(kindMedians), len(got)))
	return r, nil
}
