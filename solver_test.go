package gapsched

// Property tests for the Solver pipeline: the prep layer plus the
// unified DP engine must agree with the exponential-time oracles in
// internal/exact on randomized small instances, for both objectives,
// with preprocessing on and off; and SolveBatch must be a pure fan-out
// of Solve.

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exact"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSolverGapsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 250; trial++ {
		n := 1 + rng.Intn(8)
		p := 1 + rng.Intn(3)
		// Wide, sparse horizons force prep splits; narrow ones force
		// infeasibility and single-fragment solves.
		horizon := 6 + rng.Intn(30)
		in := workload.Multiproc(rng, n, p, horizon, 4)
		want, feasible := exact.SpansOneInterval(in)
		for _, noPrep := range []bool{false, true} {
			sol, err := Solver{NoPreprocess: noPrep}.Solve(in)
			if !feasible {
				if err != ErrInfeasible {
					t.Fatalf("trial %d (noPrep=%v): oracle infeasible, solver err %v (p=%d jobs %v)",
						trial, noPrep, err, p, in.Jobs)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d (noPrep=%v): solver failed on feasible instance: %v (p=%d jobs %v)",
					trial, noPrep, err, p, in.Jobs)
			}
			if sol.Spans != want {
				t.Fatalf("trial %d (noPrep=%v): solver spans %d, oracle %d (p=%d jobs %v)",
					trial, noPrep, sol.Spans, want, p, in.Jobs)
			}
			if err := sol.Schedule.Validate(in); err != nil {
				t.Fatalf("trial %d (noPrep=%v): invalid schedule: %v", trial, noPrep, err)
			}
			if got := sol.Schedule.Spans(); got != want {
				t.Fatalf("trial %d (noPrep=%v): schedule spans %d, oracle %d", trial, noPrep, got, want)
			}
			if noPrep && sol.Subinstances != 1 {
				t.Fatalf("trial %d: NoPreprocess reported %d subinstances", trial, sol.Subinstances)
			}
		}
	}
}

func TestSolverPowerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	alphas := []float64{0, 0.5, 1, 2, 3.5, 10}
	for trial := 0; trial < 250; trial++ {
		n := 1 + rng.Intn(7)
		p := 1 + rng.Intn(2)
		alpha := alphas[rng.Intn(len(alphas))]
		horizon := 6 + rng.Intn(24)
		in := workload.Multiproc(rng, n, p, horizon, 4)
		want, feasible := exact.PowerOneInterval(in, alpha)
		for _, noPrep := range []bool{false, true} {
			sol, err := Solver{Objective: ObjectivePower, Alpha: alpha, NoPreprocess: noPrep}.Solve(in)
			if !feasible {
				if err != ErrInfeasible {
					t.Fatalf("trial %d (noPrep=%v): oracle infeasible, solver err %v (p=%d α=%v jobs %v)",
						trial, noPrep, err, p, alpha, in.Jobs)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d (noPrep=%v): solver failed: %v (p=%d α=%v jobs %v)",
					trial, noPrep, err, p, alpha, in.Jobs)
			}
			if math.Abs(sol.Power-want) > 1e-9 {
				t.Fatalf("trial %d (noPrep=%v): solver power %v, oracle %v (p=%d α=%v jobs %v)",
					trial, noPrep, sol.Power, want, p, alpha, in.Jobs)
			}
			if err := sol.Schedule.Validate(in); err != nil {
				t.Fatalf("trial %d (noPrep=%v): invalid schedule: %v", trial, noPrep, err)
			}
			if got := sol.Schedule.PowerCost(alpha); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d (noPrep=%v): schedule power %v, oracle %v", trial, noPrep, got, want)
			}
		}
	}
}

func TestSolverRejectsBadInput(t *testing.T) {
	if _, err := (Solver{Objective: ObjectivePower, Alpha: -1}).Solve(NewInstance(nil)); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := (Solver{Objective: Objective(99)}).Solve(NewInstance(nil)); err == nil {
		t.Fatal("unknown objective accepted")
	}
	bad := Instance{Jobs: []Job{{Release: 3, Deadline: 1}}, Procs: 1}
	for _, noPrep := range []bool{false, true} {
		if _, err := (Solver{NoPreprocess: noPrep}).Solve(bad); err == nil {
			t.Fatalf("empty-window job accepted (noPrep=%v)", noPrep)
		}
	}
}

func TestSolverPreprocessSplitsSparseInstances(t *testing.T) {
	// Three clusters far apart: the prep layer must split them and the
	// state count must shrink versus the monolithic solve.
	var jobs []Job
	for _, base := range []int{0, 1000, 2000} {
		for i := 0; i < 4; i++ {
			jobs = append(jobs, Job{Release: base + i, Deadline: base + i + 3})
		}
	}
	in := NewInstance(jobs)
	split, err := Solver{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Solver{NoPreprocess: true}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if split.Subinstances != 3 {
		t.Fatalf("expected 3 subinstances, got %d", split.Subinstances)
	}
	if split.Spans != mono.Spans {
		t.Fatalf("split spans %d != monolithic %d", split.Spans, mono.Spans)
	}
	if split.States >= mono.States {
		t.Fatalf("preprocessing did not shrink the DP: %d states split vs %d monolithic",
			split.States, mono.States)
	}
}

func TestSolveBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ins := make([]Instance, 40)
	for i := range ins {
		// A mix of feasible and infeasible instances.
		ins[i] = workload.Multiproc(rng, 1+rng.Intn(7), 1+rng.Intn(2), 8+rng.Intn(10), 4)
	}
	for _, s := range []Solver{
		{},
		{Workers: 1},
		{Workers: 3},
		{Objective: ObjectivePower, Alpha: 2},
	} {
		batch := s.SolveBatch(ins)
		if len(batch) != len(ins) {
			t.Fatalf("batch returned %d results for %d instances", len(batch), len(ins))
		}
		for i, in := range ins {
			sol, err := s.Solve(in)
			if (err == nil) != (batch[i].Err == nil) || (err != nil && err.Error() != batch[i].Err.Error()) {
				t.Fatalf("instance %d: batch err %v, sequential %v", i, batch[i].Err, err)
			}
			if err != nil {
				continue
			}
			if batch[i].Solution.Spans != sol.Spans || batch[i].Solution.States != sol.States ||
				math.Abs(batch[i].Solution.Power-sol.Power) > 1e-9 {
				t.Fatalf("instance %d: batch solution %+v differs from sequential %+v",
					i, batch[i].Solution, sol)
			}
		}
	}
	if out := (Solver{}).SolveBatch(nil); len(out) != 0 {
		t.Fatal("empty batch returned results")
	}
}

func TestObjectiveString(t *testing.T) {
	if ObjectiveGaps.String() != "gaps" || ObjectivePower.String() != "power" {
		t.Fatal("objective names changed")
	}
	if Objective(7).String() == "" {
		t.Fatal("unknown objective has empty name")
	}
}

// TestSolverHugeProcs: a processor count far above the job count must
// neither exhaust memory nor change the answer. Every pipeline shape —
// exact and auto mode, prep on and off, one-shot and session — reports
// the optimum of the same jobs on two processors, and the schedule
// keeps the caller's processor count.
func TestSolverHugeProcs(t *testing.T) {
	jobs := []Job{{Release: 0, Deadline: 3}, {Release: 0, Deadline: 3}}
	huge := Instance{Jobs: jobs, Procs: 1 << 40}
	for _, base := range []Solver{{}, {Objective: ObjectivePower, Alpha: 2}} {
		for _, cfg := range []Solver{
			{Mode: ModeExact},
			{Mode: ModeAuto},
			{Mode: ModeExact, NoPreprocess: true},
			{Mode: ModeAuto, NoPreprocess: true},
		} {
			s := base
			s.Mode, s.NoPreprocess = cfg.Mode, cfg.NoPreprocess
			want, err := s.Solve(Instance{Jobs: jobs, Procs: 2})
			if err != nil {
				t.Fatalf("%+v on p=2: %v", s, err)
			}
			got, err := s.Solve(huge)
			if err != nil {
				t.Fatalf("%+v on p=2^40: %v", s, err)
			}
			if s.Objective.Cost(got) != s.Objective.Cost(want) {
				t.Fatalf("%+v: cost %v on p=2^40, want %v (p=2)", s, s.Objective.Cost(got), s.Objective.Cost(want))
			}
			if err := got.Schedule.Validate(huge); err != nil {
				t.Fatalf("%+v: schedule invalid on p=2^40: %v", s, err)
			}
		}
		ss, err := base.Open(1 << 40)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := ss.Add(j); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ss.Resolve()
		ss.Close()
		if err != nil {
			t.Fatalf("%+v session on p=2^40: %v", base, err)
		}
		want, _ := base.Solve(Instance{Jobs: jobs, Procs: 2})
		if base.Objective.Cost(got) != base.Objective.Cost(want) {
			t.Fatalf("%+v session: cost %v on p=2^40, want %v (p=2)", base, base.Objective.Cost(got), base.Objective.Cost(want))
		}
	}
}

// TestSolverCoordinateBound: an instance outside the coordinate bound
// sched.MaxCoord — a coordinate beyond ±MaxCoord, or a horizon wider
// than MaxCoord — is rejected with an error that names the bound, by
// every mode, with preprocessing on and off, one-shot, in a batch and
// in a session, instead of overflowing into a spurious "empty window"
// or infeasibility verdict. Instances at the bound itself solve
// exactly.
func TestSolverCoordinateBound(t *testing.T) {
	outside := []Instance{
		NewInstance([]Job{{Release: math.MinInt64 + 1, Deadline: math.MaxInt64 - 2}}),
		NewInstance([]Job{{Release: math.MinInt + 1, Deadline: math.MaxInt - 1}, {Release: math.MinInt + 1, Deadline: math.MinInt + 1}}),
		NewInstance([]Job{{Release: 0, Deadline: 0}, {Release: sched.MaxCoord + 1, Deadline: sched.MaxCoord + 1}}),
		NewInstance([]Job{{Release: -sched.MaxCoord - 1, Deadline: 0}}),
		NewInstance([]Job{{Release: -sched.MaxCoord, Deadline: -sched.MaxCoord}, {Release: 1, Deadline: 1}}),
	}
	const want = "coordinate bound"
	for _, base := range []Solver{{}, {Objective: ObjectivePower, Alpha: 2}} {
		for _, cfg := range []Solver{
			{Mode: ModeExact},
			{Mode: ModeAuto},
			{Mode: ModeHeuristic},
			{Mode: ModeExact, NoPreprocess: true},
			{Mode: ModeAuto, NoPreprocess: true},
			{Mode: ModeHeuristic, NoPreprocess: true},
		} {
			s := base
			s.Mode, s.NoPreprocess = cfg.Mode, cfg.NoPreprocess
			for i, in := range outside {
				if _, err := s.Solve(in); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%+v instance %d: err %v, want the coordinate-bound error", s, i, err)
				}
			}
			for i, r := range s.SolveBatch(outside) {
				if r.Err == nil || !strings.Contains(r.Err.Error(), want) {
					t.Fatalf("%+v batch element %d: err %v, want the coordinate-bound error", s, i, r.Err)
				}
			}
		}
		ss, err := base.Open(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Add(outside[0].Jobs[0]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%+v session add: err %v, want the coordinate-bound error", base, err)
		}
		ss.Close()
	}
	for i, in := range outside {
		if Feasible(in) {
			t.Fatalf("instance %d outside the bound reported feasible", i)
		}
	}

	// At the bound: a window MaxCoord wide with point jobs at both of its
	// ends, once at the negative extreme and once at the positive one;
	// the wide job fits next to either point job, so 2 spans.
	for _, lo := range []int{-sched.MaxCoord, 0} {
		hi := lo + sched.MaxCoord
		edge := NewInstance([]Job{
			{Release: lo, Deadline: hi},
			{Release: lo, Deadline: lo},
			{Release: hi, Deadline: hi},
		})
		if !Feasible(edge) {
			t.Fatalf("[%d,%d]: instance at the bound reported infeasible", lo, hi)
		}
		for _, cfg := range []Solver{{}, {NoPreprocess: true}, {Mode: ModeAuto}, {Mode: ModeHeuristic},
			{Objective: ObjectivePower, Alpha: 3}} {
			sol, err := cfg.Solve(edge)
			if err != nil {
				t.Fatalf("%+v on [%d,%d]: %v", cfg, lo, hi, err)
			}
			if err := sol.Schedule.Validate(edge); err != nil {
				t.Fatalf("%+v on [%d,%d]: schedule invalid: %v", cfg, lo, hi, err)
			}
			if sol.Spans != 2 {
				t.Fatalf("%+v on [%d,%d]: %d spans, want 2", cfg, lo, hi, sol.Spans)
			}
		}
	}
}
