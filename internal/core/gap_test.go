package core

import (
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSolveGapsTrivial(t *testing.T) {
	cases := []struct {
		name  string
		in    sched.Instance
		spans int
	}{
		{"empty", sched.NewInstance(nil), 0},
		{"single job", sched.NewInstance([]sched.Job{{Release: 3, Deadline: 7}}), 1},
		{"chain", workload.TightChain(5), 1},
		{"two isolated", sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 10, Deadline: 10}}), 2},
		{"mergeable", sched.NewInstance([]sched.Job{{Release: 0, Deadline: 2}, {Release: 0, Deadline: 2}}), 1},
		{"forced gap", sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 2, Deadline: 2}}), 2},
		{"bridgeable window", sched.NewInstance([]sched.Job{
			{Release: 0, Deadline: 0}, {Release: 0, Deadline: 4}, {Release: 2, Deadline: 2}}), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolveGaps(tc.in)
			if err != nil {
				t.Fatalf("SolveGaps: %v", err)
			}
			if res.Spans != tc.spans {
				t.Fatalf("spans = %d, want %d", res.Spans, tc.spans)
			}
			if len(tc.in.Jobs) > 0 && res.Schedule.Spans() != res.Spans {
				t.Fatalf("schedule has %d spans, DP claims %d", res.Schedule.Spans(), res.Spans)
			}
		})
	}
}

func TestSolveGapsInfeasible(t *testing.T) {
	in := sched.NewInstance([]sched.Job{
		{Release: 0, Deadline: 0},
		{Release: 0, Deadline: 0},
	})
	if _, err := SolveGaps(in); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	in.Procs = 2
	if _, err := SolveGaps(in); err != nil {
		t.Fatalf("two processors make it feasible, got %v", err)
	}
}

func TestSolveGapsMatchesOracleSingleProc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		in := workload.OneInterval(rng, n, 12, 5)
		want, feasible := exact.SpansOneInterval(in)
		res, err := SolveGaps(in)
		if !feasible {
			if err != ErrInfeasible {
				t.Fatalf("trial %d: oracle says infeasible, DP says %v (instance %v)", trial, err, in.Jobs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: oracle feasible but DP failed: %v (instance %v)", trial, err, in.Jobs)
		}
		if res.Spans != want {
			t.Fatalf("trial %d: DP spans %d, oracle %d (instance %v)", trial, res.Spans, want, in.Jobs)
		}
		if got := res.Schedule.Spans(); got != want {
			t.Fatalf("trial %d: reconstructed schedule has %d spans, want %d", trial, got, want)
		}
	}
}

func TestSolveGapsMatchesOracleMultiProc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		p := 1 + rng.Intn(3)
		in := workload.Multiproc(rng, n, p, 10, 4)
		want, feasible := exact.SpansOneInterval(in)
		res, err := SolveGaps(in)
		if !feasible {
			if err != ErrInfeasible {
				t.Fatalf("trial %d: oracle infeasible, DP err %v (p=%d jobs %v)", trial, err, p, in.Jobs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: DP failed on feasible instance: %v (p=%d jobs %v)", trial, err, p, in.Jobs)
		}
		if res.Spans != want {
			t.Fatalf("trial %d: DP spans %d, oracle %d (p=%d jobs %v)", trial, res.Spans, want, p, in.Jobs)
		}
	}
}

// TestOracleMatchesUltraBrute certifies the staircase/EDF normalizations
// of the oracle itself against a normalization-free enumeration.
func TestOracleMatchesUltraBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(5)
		p := 1 + rng.Intn(2)
		in := workload.Multiproc(rng, n, p, 7, 3)
		a, okA := exact.SpansOneInterval(in)
		b, okB := exact.UltraBruteSpans(in)
		if okA != okB {
			t.Fatalf("trial %d: oracle feasible=%v, ultra-brute=%v (p=%d jobs %v)", trial, okA, okB, p, in.Jobs)
		}
		if okA && a != b {
			t.Fatalf("trial %d: oracle %d, ultra-brute %d (p=%d jobs %v)", trial, a, b, p, in.Jobs)
		}
	}
}

func TestSolveGapsFeasibilityAgreesWithHall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(7)
		p := 1 + rng.Intn(2)
		in := workload.Multiproc(rng, n, p, 8, 3)
		_, feasible := exact.SpansOneInterval(in)
		if hall := exact.HallFeasible(in); hall != feasible {
			t.Fatalf("trial %d: Hall=%v oracle=%v (p=%d jobs %v)", trial, hall, feasible, p, in.Jobs)
		}
	}
}

func TestSolveGapsLargerSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := workload.FeasibleOneInterval(rng, 16, 2, 24, 6)
	res, err := SolveGaps(in)
	if err != nil {
		t.Fatalf("SolveGaps: %v", err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if res.Schedule.Spans() != res.Spans {
		t.Fatalf("schedule spans %d != claimed %d", res.Schedule.Spans(), res.Spans)
	}
}
