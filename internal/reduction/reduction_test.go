package reduction

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/feas"
	"repro/internal/sched"
	"repro/internal/setcover"
	"repro/internal/workload"
)

// --- Theorems 4/5/6: set cover → multi-interval power/gap scheduling ---

func TestSetCoverPowerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		sc := setcover.Random(rng, 2+rng.Intn(5), 2+rng.Intn(4), 3)
		r := FromSetCover(sc)
		optCover := setcover.Exact(sc)
		if optCover == nil {
			t.Fatalf("trial %d: generator produced uncoverable instance", trial)
		}
		k := len(optCover)

		// Forward: a cover of size k yields a schedule of power n+1+α(k+1).
		ms, ok := r.CoverToSchedule(optCover)
		if !ok {
			t.Fatalf("trial %d: CoverToSchedule failed", trial)
		}
		if got, want := ms.PowerCost(r.Alpha), r.PowerOfCoverSize(k); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: forward power %v, want %v", trial, got, want)
		}

		// Exact equivalence: optimal power equals n+1+α(k*+1).
		optPower, feasible := exact.PowerMulti(r.Multi, r.Alpha)
		if !feasible {
			t.Fatalf("trial %d: constructed instance infeasible", trial)
		}
		if want := r.PowerOfCoverSize(k); math.Abs(optPower-want) > 1e-9 {
			t.Fatalf("trial %d: optimal power %v, want %v (k=%d)", trial, optPower, want, k)
		}

		// Theorem 6 (gap objective): optimal spans = k+1.
		optSpans, _ := exact.SpansMulti(r.Multi)
		if optSpans != r.SpansOfCoverSize(k) {
			t.Fatalf("trial %d: optimal spans %d, want %d", trial, optSpans, k+1)
		}

		// Pull-back: the forward schedule induces a cover of size ≤ k.
		back := r.ScheduleToCover(ms)
		if !sc.IsCover(back) {
			t.Fatalf("trial %d: pulled-back set is not a cover", trial)
		}
		if len(back) > k {
			t.Fatalf("trial %d: pulled-back cover size %d > %d", trial, len(back), k)
		}
	}
}

func TestBSetCoverPowerUsesAlphaB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sc := setcover.RandomB(rng, 6, 4, 3)
	r := FromBSetCover(sc)
	if r.Alpha != float64(sc.MaxSetSize()) {
		t.Fatalf("alpha = %v, want B = %d", r.Alpha, sc.MaxSetSize())
	}
	optCover := setcover.Exact(sc)
	optPower, feasible := exact.PowerMulti(r.Multi, r.Alpha)
	if !feasible {
		t.Fatal("constructed instance infeasible")
	}
	if want := r.PowerOfCoverSize(len(optCover)); math.Abs(optPower-want) > 1e-9 {
		t.Fatalf("optimal power %v, want %v", optPower, want)
	}
	if got := r.CoverSizeOfPower(optPower); got != len(optCover) {
		t.Fatalf("CoverSizeOfPower = %d, want %d", got, len(optCover))
	}
}

// TestSetCoverGreedyThroughReduction demonstrates approximation
// preservation: solving the constructed instance by scheduling greedily
// from the greedy cover is within H_n of the optimal power.
func TestSetCoverGreedyThroughReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		sc := setcover.Random(rng, 3+rng.Intn(5), 2+rng.Intn(4), 3)
		r := FromSetCover(sc)
		g := setcover.Greedy(sc)
		ms, ok := r.CoverToSchedule(g)
		if !ok {
			t.Fatalf("trial %d: greedy cover rejected", trial)
		}
		opt := setcover.Exact(sc)
		hn := 0.0
		for i := 1; i <= sc.NumElems; i++ {
			hn += 1.0 / float64(i)
		}
		if float64(len(g)) > hn*float64(len(opt))+1e-9 {
			t.Fatalf("trial %d: greedy cover %d beyond H_n bound %v·%d", trial, len(g), hn, len(opt))
		}
		if got, want := ms.PowerCost(r.Alpha), r.PowerOfCoverSize(len(g)); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: greedy schedule power %v, want %v", trial, got, want)
		}
	}
}

// --- Theorem 7: multi-interval → 2-interval ---

func TestTwoIntervalReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var trials []sched.MultiInstance
	for trial := 0; trial < 40; trial++ {
		trials = append(trials, workload.FeasibleMultiInterval(rng, 2+rng.Intn(4), 3+rng.Intn(2), 1, 12))
	}
	for trial, mi := range trials {
		if mi.MaxIntervalsPerJob() <= 2 {
			continue // nothing to reduce; covered by TestTwoIntervalIdentity
		}
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			t.Parallel()
			r := ToTwoInterval(mi)
			for _, j := range r.Reduced.Jobs {
				if len(j.Intervals) > 2 {
					t.Fatalf("trial %d: reduced job has %d intervals", trial, len(j.Intervals))
				}
			}
			optOrig, ok := exact.SpansMulti(mi)
			if !ok {
				t.Fatalf("trial %d: original infeasible", trial)
			}
			if mi.N()+r.Reduced.N() <= exact.MaxOracleJobs+mi.N() && r.Reduced.N() <= exact.MaxOracleJobs {
				optRed, ok := exact.SpansMulti(r.Reduced)
				if !ok {
					t.Fatalf("trial %d: reduced infeasible", trial)
				}
				if optRed != optOrig+1 {
					t.Fatalf("trial %d: reduced opt %d, want original %d + 1", trial, optRed, optOrig)
				}
			}
		})
	}
}

func TestTwoIntervalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		mi := workload.FeasibleMultiInterval(rng, 2+rng.Intn(4), 3, 1, 10)
		r := ToTwoInterval(mi)
		orig, ok := feas.SolveMulti(mi)
		if !ok {
			t.Fatalf("trial %d: infeasible", trial)
		}
		lifted, ok := r.FromOriginal(orig)
		if !ok {
			t.Fatalf("trial %d: FromOriginal failed", trial)
		}
		// Lifting adds exactly one span (the full extra block) when any
		// job was transformed.
		transformed := false
		for j := range mi.Jobs {
			if r.CopyOf[j] < 0 {
				transformed = true
			}
		}
		if transformed {
			if got, want := lifted.Spans(), orig.Spans()+1; got != want {
				t.Fatalf("trial %d: lifted spans %d, want %d", trial, got, want)
			}
		}
		back, ok := r.PullBack(lifted)
		if !ok {
			t.Fatalf("trial %d: PullBack failed", trial)
		}
		if err := back.Validate(mi); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.Spans() != orig.Spans() {
			t.Fatalf("trial %d: round trip changed spans %d → %d", trial, orig.Spans(), back.Spans())
		}
	}
}

func TestTwoIntervalIdentity(t *testing.T) {
	mi := sched.MultiInstance{Jobs: []sched.MultiJob{
		sched.NewMultiJob(sched.Interval{Lo: 0, Hi: 3}),
		sched.NewMultiJob(sched.Interval{Lo: 0, Hi: 1}, sched.Interval{Lo: 5, Hi: 6}),
	}}
	r := ToTwoInterval(mi)
	if r.Reduced.N() != mi.N() {
		t.Fatalf("identity reduction changed job count: %d", r.Reduced.N())
	}
}

// --- Theorem 8: multi-interval → 3-unit ---

func TestThreeUnitReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var trials []sched.MultiInstance
	for trial := 0; trial < 30; trial++ {
		trials = append(trials, workload.FeasibleUnitMulti(rng, 2+rng.Intn(3), 4+rng.Intn(2), 14))
	}
	for trial, mi := range trials {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			t.Parallel()
			r := ToThreeUnit(mi)
			for _, j := range r.Reduced.Jobs {
				if j.NumTimes() > 3 {
					t.Fatalf("trial %d: reduced job has %d times", trial, j.NumTimes())
				}
				if !j.UnitIntervals() {
					t.Fatalf("trial %d: reduced job has non-unit interval", trial)
				}
			}
			optOrig, ok := exact.SpansMulti(mi)
			if !ok {
				t.Fatalf("trial %d: original infeasible", trial)
			}
			if r.Reduced.N() <= exact.MaxOracleJobs {
				optRed, ok2 := exact.SpansMulti(r.Reduced)
				if !ok2 {
					t.Fatalf("trial %d: reduced infeasible", trial)
				}
				if optRed != optOrig+1 {
					t.Fatalf("trial %d: reduced opt %d, want %d", trial, optRed, optOrig+1)
				}
			}
		})
	}
}

func TestThreeUnitRotationAllExclusions(t *testing.T) {
	// One job with 5 allowed times: every possible escape q must produce
	// a valid lifted schedule (the proof's "every combination of k−1
	// jobs fills the extra interval").
	mi := sched.MultiInstance{Jobs: []sched.MultiJob{
		sched.MultiJobFromTimes(0, 2, 4, 6, 8),
	}}
	r := ToThreeUnit(mi)
	for _, tm := range []int{0, 2, 4, 6, 8} {
		lifted, ok := r.FromOriginal(sched.MultiSchedule{Times: []int{tm}})
		if !ok {
			t.Fatalf("escape at %d: lift failed", tm)
		}
		back, ok := r.PullBack(lifted)
		if !ok {
			t.Fatalf("escape at %d: pull-back failed", tm)
		}
		if back.Times[0] != tm {
			t.Fatalf("escape at %d: round trip gave %d", tm, back.Times[0])
		}
	}
}

// --- Theorem 9: two-unit ↔ disjoint-unit ---

func TestTwoUnitToDisjointReversal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tested := 0
	for trial := 0; trial < 200 && tested < 40; trial++ {
		mi := workload.UnitMulti(rng, 2+rng.Intn(5), 1+rng.Intn(2), 10)
		eq, ok := TwoUnitToDisjoint(mi)
		if !ok {
			continue // infeasible draw
		}
		tested++
		// Constructed instance is disjoint-unit.
		seen := map[int]bool{}
		for _, j := range eq.To.Jobs {
			for _, tm := range j.Times() {
				if seen[tm] {
					t.Fatalf("trial %d: constructed jobs overlap at %d", trial, tm)
				}
				seen[tm] = true
			}
		}
		// Optimal gap counts differ by at most one.
		optFrom, ok1 := exact.SpansMulti(eq.From)
		optTo, ok2 := exact.SpansMulti(eq.To)
		if !ok1 || !ok2 {
			t.Fatalf("trial %d: unexpected infeasibility (%v %v)", trial, ok1, ok2)
		}
		gapsFrom, gapsTo := optFrom-1, optTo-1
		if d := gapsFrom - gapsTo; d < -1 || d > 1 {
			t.Fatalf("trial %d: gap optima differ by %d (from %d, to %d)", trial, d, gapsFrom, gapsTo)
		}
	}
	if tested < 10 {
		t.Fatalf("only %d feasible draws; generator too strict", tested)
	}
}

func TestTwoUnitDisjointSolutionMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tested := 0
	for trial := 0; trial < 200 && tested < 30; trial++ {
		mi := workload.UnitMulti(rng, 2+rng.Intn(5), 2, 9)
		eq, ok := TwoUnitToDisjoint(mi)
		if !ok {
			continue
		}
		tested++
		old, ok := feas.SolveMulti(eq.From)
		if !ok {
			t.Fatalf("trial %d: infeasible after construction", trial)
		}
		nw, ok := eq.NewFromOld(old)
		if !ok {
			t.Fatalf("trial %d: NewFromOld failed", trial)
		}
		back, ok := eq.OldFromNew(nw)
		if !ok {
			t.Fatalf("trial %d: OldFromNew failed", trial)
		}
		if err := back.Validate(eq.From); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if tested < 10 {
		t.Fatalf("only %d feasible draws", tested)
	}
}

func TestDisjointToTwoUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		mi := workload.DisjointUnit(rng, 2+rng.Intn(3), 2+rng.Intn(2))
		eq, ok := DisjointToTwoUnit(mi)
		if !ok {
			t.Fatalf("trial %d: construction rejected disjoint instance", trial)
		}
		for _, j := range eq.To.Jobs {
			if j.NumTimes() > 2 {
				t.Fatalf("trial %d: constructed job has %d times", trial, j.NumTimes())
			}
		}
		optFrom, ok1 := exact.SpansMulti(eq.From)
		optTo, ok2 := exact.SpansMulti(eq.To)
		if !ok1 || !ok2 {
			t.Fatalf("trial %d: infeasibility (%v %v)", trial, ok1, ok2)
		}
		if d := (optFrom - 1) - (optTo - 1); d < -1 || d > 1 {
			t.Fatalf("trial %d: gap optima differ by %d", trial, d)
		}
	}
}

func TestDisjointToTwoUnitRejectsOverlap(t *testing.T) {
	mi := sched.MultiInstance{Jobs: []sched.MultiJob{
		sched.MultiJobFromTimes(0, 1),
		sched.MultiJobFromTimes(1, 2),
	}}
	if _, ok := DisjointToTwoUnit(mi); ok {
		t.Fatal("accepted overlapping allowed sets")
	}
}

// --- Theorem 10: B-set cover → disjoint-unit ---

func TestBSetCoverDisjointEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		sc := setcover.RandomB(rng, 2+rng.Intn(4), 2+rng.Intn(3), 2)
		r := FromBSetCoverDisjoint(sc)
		opt := setcover.Exact(sc)
		if opt == nil {
			t.Fatalf("trial %d: uncoverable", trial)
		}
		ms, ok := r.CoverToSchedule(opt)
		if !ok {
			t.Fatalf("trial %d: CoverToSchedule failed", trial)
		}
		if ms.Spans() != len(opt) {
			t.Fatalf("trial %d: forward schedule has %d spans, want %d", trial, ms.Spans(), len(opt))
		}
		optSpans, feasible := exact.SpansMulti(r.Multi)
		if !feasible {
			t.Fatalf("trial %d: constructed instance infeasible", trial)
		}
		if optSpans != len(opt) {
			t.Fatalf("trial %d: optimal spans %d, want cover size %d", trial, optSpans, len(opt))
		}
		back := r.ScheduleToCover(ms)
		if !sc.IsCover(back) || len(back) > len(opt) {
			t.Fatalf("trial %d: bad pulled-back cover %v", trial, back)
		}
	}
}

// --- CompressGaps ---

func TestCompressGapsPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		mi := workload.UnitMulti(rng, 2+rng.Intn(4), 1+rng.Intn(2), 25)
		c, _ := CompressGaps(mi)
		a, ok1 := exact.SpansMulti(mi)
		b, ok2 := exact.SpansMulti(c)
		if ok1 != ok2 {
			t.Fatalf("trial %d: feasibility changed %v→%v", trial, ok1, ok2)
		}
		if ok1 && a != b {
			t.Fatalf("trial %d: compression changed optimum %d→%d", trial, a, b)
		}
	}
}
