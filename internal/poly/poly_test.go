package poly

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workload"
)

// randInstance draws a single-processor fragment: n jobs with windows
// of slack ≤ maxSlack over a horizon of maxT.
func randInstance(rng *rand.Rand, n, maxT, maxSlack int) sched.Instance {
	jobs := make([]sched.Job, n)
	for i := range jobs {
		r := rng.Intn(maxT)
		jobs[i] = sched.Job{Release: r, Deadline: r + rng.Intn(maxSlack+1)}
	}
	return sched.Instance{Jobs: jobs, Procs: 1}
}

// TestGapsMatchesCore certifies poly ≡ dp on the span objective:
// identical costs, identical schedules, identical error identity,
// over randomized single-processor fragments.
func TestGapsMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		in := randInstance(rng, 1+rng.Intn(9), 14, 4)
		want, wantErr := core.SolveGaps(in)
		got, gotErr := SolveGaps(in)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: core err %v, poly err %v (jobs %v)", trial, wantErr, gotErr, in.Jobs)
		}
		if wantErr != nil {
			if !errors.Is(gotErr, ErrInfeasible) {
				t.Fatalf("trial %d: poly err %v, want ErrInfeasible", trial, gotErr)
			}
			continue
		}
		if got.Cost != float64(want.Spans) {
			t.Fatalf("trial %d: poly cost %v, core spans %d (jobs %v)", trial, got.Cost, want.Spans, in.Jobs)
		}
		if got.Schedule.Spans() != want.Spans {
			t.Fatalf("trial %d: poly schedule spans %d, want %d", trial, got.Schedule.Spans(), want.Spans)
		}
		if err := got.Schedule.Validate(in); err != nil {
			t.Fatalf("trial %d: poly schedule invalid: %v", trial, err)
		}
	}
}

// TestPowerMatchesCore certifies poly ≡ dp on the power objective at
// dyadic alphas, where float sums are exact and equality is exact
// equality.
func TestPowerMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 400; trial++ {
		in := randInstance(rng, 1+rng.Intn(8), 12, 4)
		alpha := float64(rng.Intn(9)) / 2
		want, wantErr := core.SolvePower(in, alpha)
		got, gotErr := SolvePower(in, alpha)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: core err %v, poly err %v (jobs %v α=%v)", trial, wantErr, gotErr, in.Jobs, alpha)
		}
		if wantErr != nil {
			continue
		}
		if got.Cost != want.Power {
			t.Fatalf("trial %d: poly power %v, core power %v (jobs %v α=%v)", trial, got.Cost, want.Power, in.Jobs, alpha)
		}
		if pc := got.Schedule.PowerCost(alpha); pc != want.Power {
			t.Fatalf("trial %d: poly schedule power %v, want %v", trial, pc, want.Power)
		}
		if err := got.Schedule.Validate(in); err != nil {
			t.Fatalf("trial %d: poly schedule invalid: %v", trial, err)
		}
	}
}

// TestNoPruneIdentity certifies that branch-and-bound pruning changes
// neither costs nor schedules, and that the NoPrune run keeps
// PrunedStates at 0.
func TestNoPruneIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		in := randInstance(rng, 1+rng.Intn(8), 12, 3)
		alpha := float64(rng.Intn(7)) / 2
		for _, obj := range []string{"gaps", "power"} {
			run := func(opts Options) (Result, error) {
				if obj == "gaps" {
					return SolveGapsOpt(in, opts)
				}
				return SolvePowerOpt(in, alpha, opts)
			}
			pruned, prunedErr := run(Options{})
			full, fullErr := run(Options{NoPrune: true})
			if (prunedErr == nil) != (fullErr == nil) {
				t.Fatalf("trial %d %s: pruned err %v, full err %v", trial, obj, prunedErr, fullErr)
			}
			if prunedErr != nil {
				continue
			}
			if full.PrunedStates != 0 {
				t.Fatalf("trial %d %s: NoPrune run pruned %d states", trial, obj, full.PrunedStates)
			}
			if pruned.Cost != full.Cost {
				t.Fatalf("trial %d %s: pruned cost %v, full cost %v", trial, obj, pruned.Cost, full.Cost)
			}
			for i, a := range pruned.Schedule.Slots {
				if a != full.Schedule.Slots[i] {
					t.Fatalf("trial %d %s: schedules differ at job %d: %v vs %v", trial, obj, i, a, full.Schedule.Slots[i])
				}
			}
		}
	}
}

func TestAdmissible(t *testing.T) {
	j := sched.Job{Release: 0, Deadline: 3}
	cases := []struct {
		in   sched.Instance
		want bool
	}{
		{sched.Instance{Procs: 1}, true},                             // empty
		{sched.Instance{Jobs: []sched.Job{j}, Procs: 1}, true},       // single proc
		{sched.Instance{Jobs: []sched.Job{j}, Procs: 5}, true},       // p caps at n = 1
		{sched.Instance{Jobs: []sched.Job{j, j}, Procs: 2}, false},   // genuinely multi-proc
		{sched.Instance{Jobs: []sched.Job{j, j, j}, Procs: 1}, true}, // single proc, n > 1
	}
	for i, c := range cases {
		if got := Admissible(c.in); got != c.want {
			t.Fatalf("case %d: Admissible = %v, want %v", i, got, c.want)
		}
	}
}

// TestMultiProcessorRejected pins the error identity for instances the
// backend cannot serve.
func TestMultiProcessorRejected(t *testing.T) {
	in := sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 1}, {Release: 0, Deadline: 1}}, Procs: 2}
	if _, err := SolveGaps(in); !errors.Is(err, ErrMultiProcessor) {
		t.Fatalf("SolveGaps on 2 procs: %v, want ErrMultiProcessor", err)
	}
	if _, err := SolvePower(in, 1); !errors.Is(err, ErrMultiProcessor) {
		t.Fatalf("SolvePower on 2 procs: %v, want ErrMultiProcessor", err)
	}
}

// TestEstimate pins the admission price of a fragment this backend
// serves: prep.StateEstimate prices every single-processor instance by
// the frontier G·(n+1), with G exactly the size of the grid this
// engine builds — 0 for empty, 6 by hand for one job [0,2], monotone
// in the window.
func TestEstimate(t *testing.T) {
	if got := prep.StateEstimate(sched.Instance{Procs: 1}); got != 0 {
		t.Fatalf("empty estimate = %d, want 0", got)
	}
	small := sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 2}}, Procs: 1}
	// One job: grid is [−1, 3] clipped to [0, 2] → G = 3; G·(n+1) = 6.
	if got := prep.StateEstimate(small); got != 6 {
		t.Fatalf("estimate = %d, want 6", got)
	}
	wide := sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 200}}, Procs: 1}
	if prep.StateEstimate(wide) <= prep.StateEstimate(small) {
		t.Fatalf("estimate not monotone: wide %d ≤ small %d", prep.StateEstimate(wide), prep.StateEstimate(small))
	}
	rng := rand.New(rand.NewSource(156))
	for trial := 0; trial < 200; trial++ {
		in := randInstance(rng, 1+rng.Intn(9), 40, 6)
		if !Admissible(in) {
			t.Fatalf("trial %d: single-processor fragment not admissible", trial)
		}
		g := len(newEngine(in, gapModel{}).grid)
		if got, want := prep.StateEstimate(in), g*(len(in.Jobs)+1); got != want {
			t.Fatalf("trial %d: estimate %d, want G·(n+1) = %d·%d = %d (jobs %v)",
				trial, got, g, len(in.Jobs)+1, want, in.Jobs)
		}
	}
}

// shifted returns in with every window moved by off.
func shifted(in sched.Instance, off int) sched.Instance {
	jobs := make([]sched.Job, len(in.Jobs))
	for i, j := range in.Jobs {
		jobs[i] = sched.Job{Release: j.Release + off, Deadline: j.Deadline + off}
	}
	return sched.Instance{Jobs: jobs, Procs: in.Procs}
}

// TestPendingSweepMatchesScan: the amortised pendingSweep compute uses
// must give pendingAfter's O(k) rescan at every candidate grid index,
// for j_k's own case-B range and arbitrary ranges, at small and large
// absolute coordinates.
func TestPendingSweepMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 80; trial++ {
		in := randInstance(rng, 1+rng.Intn(10), 4+rng.Intn(30), rng.Intn(8))
		if trial%2 == 1 {
			in = shifted(in, -1<<61)
		}
		e := newEngine(in, gapModel{})
		g := len(e.grid)
		for sample := 0; sample < 150; sample++ {
			i1 := rng.Intn(g + 1)
			i2 := i1 + rng.Intn(g+1-i1)
			t1, t2 := e.t1val[i1], e.t2val[i2]
			list := e.list(t1, t2)
			for k := 1; k <= len(list); k++ {
				job := e.jobs[list[k-1]]
				lo := sort.SearchInts(e.grid, max(job.Release, t1))
				hi := sort.SearchInts(e.grid, min(job.Deadline, t2-1)+1)
				rlo := rng.Intn(g)
				for _, r := range [][2]int{{lo, hi}, {rlo, rlo + 1 + rng.Intn(g-rlo)}} {
					if r[0] >= r[1] {
						continue
					}
					pend := make([]int, r[1]-r[0])
					for x := range pend {
						pend[x] = -7 // the sweep must not rely on a cleared buffer
					}
					e.pendingSweep(list, k, r[0], pend)
					for gi := r[0]; gi < r[1]; gi++ {
						if got, want := pend[gi-r[0]], e.pendingAfter(list, k, e.grid[gi]); got != want {
							t.Fatalf("[%d,%d] k=%d gi=%d: sweep %d, scan %d (jobs %v)", t1, t2, k, gi, got, want, in.Jobs)
						}
					}
				}
			}
		}
	}
}

// TestInfeasibleExactlyWhenHall: the exact solvers take their
// feasibility verdict from the greedy, so every exact entry point —
// core and poly, gaps and power, pruned and NoPrune — must return
// ErrInfeasible exactly when Hall's condition (exact.HallFeasible)
// fails, and succeed otherwise. Windows are tight enough that a good
// share of the instances are infeasible, and half of them sit at large
// absolute coordinates.
func TestInfeasibleExactlyWhenHall(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	infeasible := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		p := 1 + rng.Intn(3)
		in := workload.Multiproc(rng, 1+rng.Intn(9), p, 2+rng.Intn(8), 1+rng.Intn(3))
		if trial%2 == 1 {
			off := 1 << 61
			if rng.Intn(2) == 0 {
				off = -off
			}
			in = shifted(in, off)
		}
		hall := exact.HallFeasible(in)
		if !hall {
			infeasible++
		}
		alpha := float64(rng.Intn(7)) / 2
		check := func(name string, err error, want error) {
			t.Helper()
			if hall && err != nil {
				t.Fatalf("trial %d %s: err %v on a Hall-feasible instance (jobs %v procs %d)", trial, name, err, in.Jobs, in.Procs)
			}
			if !hall && !errors.Is(err, want) {
				t.Fatalf("trial %d %s: err %v, want %v (jobs %v procs %d)", trial, name, err, want, in.Jobs, in.Procs)
			}
		}
		for _, opts := range []core.Options{{}, {NoPrune: true}} {
			_, err := core.SolveGapsOpt(in, opts)
			check(fmt.Sprintf("core gaps %+v", opts), err, core.ErrInfeasible)
			_, err = core.SolvePowerOpt(in, alpha, opts)
			check(fmt.Sprintf("core power %+v", opts), err, core.ErrInfeasible)
		}
		if !Admissible(in) {
			continue
		}
		for _, opts := range []Options{{}, {NoPrune: true}} {
			_, err := SolveGapsOpt(in, opts)
			check(fmt.Sprintf("poly gaps %+v", opts), err, ErrInfeasible)
			_, err = SolvePowerOpt(in, alpha, opts)
			check(fmt.Sprintf("poly power %+v", opts), err, ErrInfeasible)
		}
	}
	if infeasible < trials/10 || infeasible > trials*9/10 {
		t.Fatalf("%d of %d instances infeasible; the draw no longer exercises both verdicts", infeasible, trials)
	}
}
