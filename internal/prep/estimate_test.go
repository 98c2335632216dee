package prep_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestStateEstimateHandValues pins the estimate's shape on instances
// small enough to compute by hand: G²·(n+1)·(p+1)³ with G the clipped
// anchor-neighbourhood union and p capped at n.
func TestStateEstimateHandValues(t *testing.T) {
	// One job [0,0]: G = 1 (neighbourhood clipped to the horizon),
	// n+1 = 2, capped p = 1 → 1·1·2·2³ = 16.
	one := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}})
	if got := prep.StateEstimate(one); got != 16 {
		t.Fatalf("single-point estimate %d, want 16", got)
	}
	// Same job on 8 processors: p caps at n = 1, identical estimate.
	if got := prep.StateEstimate(sched.NewMultiprocInstance([]sched.Job{{Release: 0, Deadline: 0}}, 8)); got != 16 {
		t.Fatalf("capped-p estimate %d, want 16", got)
	}
	// Empty instance: nothing to solve.
	if got := prep.StateEstimate(sched.Instance{Procs: 3}); got != 0 {
		t.Fatalf("empty estimate %d, want 0", got)
	}
	// Two far-apart tight jobs [0,0] and [100,100]: each anchor covers
	// ±2 clipped to the horizon ends → G = 3 + 3 = 6, n+1 = 3, p = 1
	// → 36·3·8 = 864.
	two := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 100, Deadline: 100}})
	if got := prep.StateEstimate(two); got != 864 {
		t.Fatalf("two-point estimate %d, want 864", got)
	}
}

// TestStateEstimateMonotoneInSize: adding jobs to an instance must
// never shrink the estimate — the property ModeAuto's admission
// decision leans on.
func TestStateEstimateMonotoneInSize(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 100; trial++ {
		in := workload.Multiproc(rng, 2+rng.Intn(12), 1+rng.Intn(3), 6+rng.Intn(40), 1+rng.Intn(6))
		smaller := sched.Instance{Jobs: in.Jobs[:len(in.Jobs)-1], Procs: in.Procs}
		if prep.StateEstimate(smaller) > prep.StateEstimate(in) {
			t.Fatalf("estimate shrank when adding a job: %d > %d (jobs %v)",
				prep.StateEstimate(smaller), prep.StateEstimate(in), in.Jobs)
		}
	}
}

// TestStateEstimateSaturates: absurd horizons must clamp at MaxInt
// instead of overflowing into a small (or negative) budget pass.
func TestStateEstimateSaturates(t *testing.T) {
	jobs := make([]sched.Job, 2000)
	for i := range jobs {
		jobs[i] = sched.Job{Release: i * 1_000_000, Deadline: i*1_000_000 + 900_000}
	}
	if got := prep.StateEstimate(sched.NewMultiprocInstance(jobs, 4)); got != math.MaxInt {
		t.Fatalf("huge estimate %d, want MaxInt saturation", got)
	}
}

// TestStateEstimateZeroProcs: a hand-built zero-processor instance must
// estimate finitely — the (p+1) dimensions collapse to 1 — rather than
// panic or go negative. The decomposition never produces one, but the
// admission gate sits on the public Solver path, where anything can
// arrive.
func TestStateEstimateZeroProcs(t *testing.T) {
	in := sched.Instance{Jobs: []sched.Job{{Release: 0, Deadline: 0}}}
	if got := prep.StateEstimate(in); got != 2 {
		t.Fatalf("zero-proc estimate %d, want 2 (1·1·2·1³)", got)
	}
	if got := prep.StateEstimate(sched.Instance{}); got != 0 {
		t.Fatalf("zero-everything estimate %d, want 0", got)
	}
}

// TestGridSizeHandValues pins the exported grid measure both exact
// backends' admission estimates price: the clipped ±n anchor
// neighbourhoods with overlaps merged.
func TestGridSizeHandValues(t *testing.T) {
	if got := prep.GridSize(sched.Instance{}); got != 0 {
		t.Fatalf("empty grid %d, want 0", got)
	}
	// One job [0,2]: anchors 0 and 2, each ±1, clipped to the horizon
	// and merged into [0,2] → 3 grid points.
	if got := prep.GridSize(sched.NewInstance([]sched.Job{{Release: 0, Deadline: 2}})); got != 3 {
		t.Fatalf("one-job grid %d, want 3", got)
	}
	// Two far-apart tight jobs: two disjoint clipped neighbourhoods of 3
	// points each.
	two := sched.NewInstance([]sched.Job{{Release: 0, Deadline: 0}, {Release: 100, Deadline: 100}})
	if got := prep.GridSize(two); got != 6 {
		t.Fatalf("two-cluster grid %d, want 6", got)
	}
}

// TestStateEstimateDeterministic: the estimate must not depend on job
// order (fragments are canonicalized before caching, so the admission
// decision must agree between a fragment and its canonical form).
func TestStateEstimateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		in := workload.Multiproc(rng, 2+rng.Intn(10), 1+rng.Intn(3), 6+rng.Intn(30), 1+rng.Intn(5))
		canon, _ := prep.Canonicalize(in)
		if prep.StateEstimate(in) != prep.StateEstimate(canon) {
			t.Fatalf("estimate depends on job order: %d vs %d (jobs %v)",
				prep.StateEstimate(in), prep.StateEstimate(canon), in.Jobs)
		}
	}
}
