package feas_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/exact"
	"repro/internal/feas"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestMaxMatchingSmall(t *testing.T) {
	g := feas.NewBipartite(3, 3)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 2)
	m := feas.MaxMatching(g)
	if m.Size != 3 {
		t.Fatalf("matching size %d, want 3", m.Size)
	}
	for u := 0; u < 3; u++ {
		if m.MatchL[u] < 0 {
			t.Fatalf("left %d unmatched", u)
		}
		if m.MatchR[m.MatchL[u]] != u {
			t.Fatalf("inconsistent matching at %d", u)
		}
	}
}

func TestMaxMatchingDeficient(t *testing.T) {
	g := feas.NewBipartite(3, 2)
	for u := 0; u < 3; u++ {
		g.AddEdge(u, 0)
		g.AddEdge(u, 1)
	}
	if m := feas.MaxMatching(g); m.Size != 2 {
		t.Fatalf("matching size %d, want 2", m.Size)
	}
}

func TestMaxMatchingEmpty(t *testing.T) {
	if m := feas.MaxMatching(feas.NewBipartite(0, 0)); m.Size != 0 {
		t.Fatalf("empty graph matching size %d", m.Size)
	}
	if m := feas.MaxMatching(feas.NewBipartite(2, 2)); m.Size != 0 {
		t.Fatalf("edgeless graph matching size %d", m.Size)
	}
}

// TestMatchingEqualsGreedyAugmenting: Hopcroft–Karp and repeated
// feas.AugmentFrom must agree on matching size.
func TestMatchingEqualsGreedyAugmenting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		nl, nr := 1+rng.Intn(8), 1+rng.Intn(8)
		g := feas.NewBipartite(nl, nr)
		for u := 0; u < nl; u++ {
			for v := 0; v < nr; v++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		hk := feas.MaxMatching(g)
		m := feas.Matching{MatchL: make([]int, nl), MatchR: make([]int, nr)}
		for i := range m.MatchL {
			m.MatchL[i] = -1
		}
		for i := range m.MatchR {
			m.MatchR[i] = -1
		}
		for u := 0; u < nl; u++ {
			feas.AugmentFrom(g, &m, u)
		}
		if m.Size != hk.Size {
			t.Fatalf("trial %d: augmenting %d, Hopcroft–Karp %d", trial, m.Size, hk.Size)
		}
	}
}

func TestEDFMatchesHall(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		p := 1 + rng.Intn(3)
		in := workload.Multiproc(rng, n, p, 12, 4)
		_, edfOK := feas.EDFOneInterval(in)
		hall := exact.HallFeasible(in)
		if edfOK != hall {
			t.Fatalf("trial %d: EDF=%v Hall=%v (p=%d jobs %v)", trial, edfOK, hall, p, in.Jobs)
		}
	}
}

// TestFeasibleOneIntervalMatchesHall pins the O(n log n) verdict
// against the Hall-condition oracle, on feasible and infeasible draws,
// at large absolute coordinates, and on invalid instances (no
// processors, an empty window), which both report infeasible.
func TestFeasibleOneIntervalMatchesHall(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	verdicts := map[bool]int{}
	for trial := 0; trial < 600; trial++ {
		in := workload.Multiproc(rng, 1+rng.Intn(10), 1+rng.Intn(3), 2+rng.Intn(10), 1+rng.Intn(4))
		switch trial % 6 {
		case 1, 2:
			off := 1 << 61
			if trial%6 == 2 {
				off = -off
			}
			for i := range in.Jobs {
				in.Jobs[i].Release += off
				in.Jobs[i].Deadline += off
			}
		case 3:
			in.Procs = 0
		case 4:
			j := &in.Jobs[rng.Intn(len(in.Jobs))]
			j.Release, j.Deadline = j.Deadline+1, j.Release
		}
		want := exact.HallFeasible(in)
		if got := feas.FeasibleOneInterval(in); got != want {
			t.Fatalf("trial %d: FeasibleOneInterval %v, Hall %v (jobs %v procs %d)", trial, got, want, in.Jobs, in.Procs)
		}
		verdicts[want]++
	}
	if verdicts[true] < 60 || verdicts[false] < 60 {
		t.Fatalf("verdicts %v: the draw no longer exercises both answers", verdicts)
	}
	if !feas.FeasibleOneInterval(sched.Instance{Procs: 1}) {
		t.Fatal("empty instance reported infeasible")
	}
}

func TestEDFSchedulesValidly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		in := workload.FeasibleOneInterval(rng, 1+rng.Intn(10), 1+rng.Intn(3), 12, 4)
		s, ok := feas.EDFOneInterval(in)
		if !ok {
			t.Fatalf("trial %d: EDF failed on feasible instance", trial)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestFeasibleMultiAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		mi := workload.MultiInterval(rng, 1+rng.Intn(6), 1+rng.Intn(3), 1+rng.Intn(2), 8)
		got := feas.FeasibleMulti(mi)
		want := bruteFeasible(mi)
		if got != want {
			t.Fatalf("trial %d: matching=%v brute=%v (%v)", trial, got, want, mi.Jobs)
		}
	}
}

func bruteFeasible(mi sched.MultiInstance) bool {
	used := map[int]bool{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == mi.N() {
			return true
		}
		for _, t := range mi.Jobs[i].Times() {
			if !used[t] {
				used[t] = true
				if rec(i + 1) {
					return true
				}
				delete(used, t)
			}
		}
		return false
	}
	return rec(0)
}

// TestExtendScheduleLemma3 is the Lemma 3 property test: extending a
// feasible partial schedule of n′ jobs with g spans yields a full
// schedule with at most g + (n − n′) spans.
func TestExtendScheduleLemma3(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mi := workload.FeasibleMultiInterval(r, 2+r.Intn(8), 1+r.Intn(3), 1+r.Intn(3), 14)
		full, ok := feas.SolveMulti(mi)
		if !ok {
			return false
		}
		// Random partial sub-schedule.
		partial := map[int]int{}
		for j, tm := range full.Times {
			if r.Intn(2) == 0 {
				partial[j] = tm
			}
		}
		var partialTimes []int
		for _, tm := range partial {
			partialTimes = append(partialTimes, tm)
		}
		g := sched.SpansOfTimes(partialTimes)
		ext, ok := feas.ExtendSchedule(mi, partial)
		if !ok {
			return false
		}
		if err := ext.Validate(mi); err != nil {
			return false
		}
		// Lemma 3 bound.
		return ext.Spans() <= g+(mi.N()-len(partial))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestExtendScheduleRejectsBadPartial(t *testing.T) {
	mi := sched.MultiInstance{Jobs: []sched.MultiJob{
		sched.MultiJobFromTimes(0, 1),
		sched.MultiJobFromTimes(0),
	}}
	// Job 1 pinned to 0 and job 0 also (illegally) claimed at 0.
	if _, ok := feas.ExtendSchedule(mi, map[int]int{0: 0, 1: 0}); ok {
		t.Fatal("accepted colliding partial schedule")
	}
	if _, ok := feas.ExtendSchedule(mi, map[int]int{0: 5}); ok {
		t.Fatal("accepted out-of-set partial time")
	}
	if ext, ok := feas.ExtendSchedule(mi, map[int]int{0: 1}); !ok {
		t.Fatal("rejected valid partial schedule")
	} else if err := ext.Validate(mi); err != nil {
		t.Fatal(err)
	}
}

func TestLayOutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		in := workload.Multiproc(rng, 1+rng.Intn(6), 1+rng.Intn(3), 8, 3)
		mi, _ := sched.LayOut(in)
		if got, want := feas.FeasibleMulti(mi), feas.FeasibleOneInterval(in); got != want {
			t.Fatalf("trial %d: laid-out feasibility %v, direct %v", trial, got, want)
		}
	}
}

// TestEDFWideIdleGap: EDF jumps over idle runs instead of scanning them
// unit by unit, so an idle gap of 2^61 — inside the coordinate bound
// sched.MaxCoord — costs nothing. A per-unit scan would not return for
// years; the watchdog turns that hang into a failure.
func TestEDFWideIdleGap(t *testing.T) {
	const w = 1 << 61
	in := sched.Instance{Procs: 1, Jobs: []sched.Job{
		{Release: w, Deadline: w + 1},
		{Release: 0, Deadline: 0},
		{Release: w, Deadline: w},
	}}
	if err := in.Validate(); err != nil {
		t.Fatalf("instance must be valid: %v", err)
	}
	type outcome struct {
		s  sched.Schedule
		ok bool
	}
	done := make(chan outcome, 1)
	go func() {
		s, ok := feas.EDFOneInterval(in)
		done <- outcome{s, ok}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("EDFOneInterval did not return within 10s on a 2^61-wide idle gap")
	}
	if !got.ok {
		t.Fatal("EDF reported a feasible instance infeasible")
	}
	if err := got.s.Validate(in); err != nil {
		t.Fatalf("EDF schedule invalid: %v", err)
	}
	want := []sched.Assignment{{Proc: 0, Time: w + 1}, {Proc: 0, Time: 0}, {Proc: 0, Time: w}}
	for i, a := range got.s.Slots {
		if a != want[i] {
			t.Fatalf("slot %d = %+v, want %+v (EDF order by deadline)", i, a, want[i])
		}
	}
}
