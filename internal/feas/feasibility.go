package feas

import (
	"sort"

	"repro/internal/heur"
	"repro/internal/sched"
)

// FeasibleOneInterval reports whether every job of the one-interval
// p-processor instance can be scheduled. It takes the verdict of
// heur.Greedy, an exact feasibility oracle (heur package doc), in
// O(n log n); an invalid instance is reported infeasible. The tests
// hold it against exact.HallFeasible, which checks Hall's condition
// directly.
func FeasibleOneInterval(in sched.Instance) bool {
	_, err := heur.Greedy(in)
	return err == nil
}

// EDFOneInterval builds a feasible schedule for a one-interval
// p-processor instance by scanning time and running, at each unit, the p
// (or fewer) released unscheduled jobs with earliest deadlines. It
// returns false if some job misses its deadline — which, by the standard
// exchange argument, happens only when the instance is infeasible.
// The schedule produced is "eager": it never idles while work is
// available, so it is the canonical online/greedy baseline (§1).
func EDFOneInterval(in sched.Instance) (sched.Schedule, bool) {
	n := len(in.Jobs)
	out := sched.Schedule{Procs: in.Procs, Slots: make([]sched.Assignment, n)}
	if n == 0 {
		return out, true
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		return in.Jobs[order[x]].Release < in.Jobs[order[y]].Release
	})
	lo, hi := in.TimeHorizon()
	// pending is a simple deadline-ordered list; n is small enough in all
	// our workloads that O(n log n) per step is unnecessary complexity.
	var pending []int
	next := 0
	scheduled := 0
	for t := lo; t <= hi && scheduled < n; t++ {
		for next < n && in.Jobs[order[next]].Release <= t {
			pending = append(pending, order[next])
			next++
		}
		sort.Slice(pending, func(x, y int) bool {
			a, b := in.Jobs[pending[x]], in.Jobs[pending[y]]
			if a.Deadline != b.Deadline {
				return a.Deadline < b.Deadline
			}
			return pending[x] < pending[y]
		})
		run := len(pending)
		if run > in.Procs {
			run = in.Procs
		}
		for q := 0; q < run; q++ {
			i := pending[q]
			if in.Jobs[i].Deadline < t {
				return sched.Schedule{}, false
			}
			out.Slots[i] = sched.Assignment{Proc: q, Time: t}
			scheduled++
		}
		pending = pending[run:]
	}
	if scheduled < n {
		return sched.Schedule{}, false
	}
	return out, true
}

// MultiGraph builds the jobs×times bipartite graph of a multi-interval
// instance. times is the sorted distinct union of allowed times; the
// returned index maps a time to its right-vertex id.
func MultiGraph(mi sched.MultiInstance) (g *Bipartite, times []int, index map[int]int) {
	times = mi.AllTimes()
	index = make(map[int]int, len(times))
	for i, t := range times {
		index[t] = i
	}
	g = NewBipartite(mi.N(), len(times))
	for u, j := range mi.Jobs {
		for _, iv := range j.Intervals {
			for t := iv.Lo; t <= iv.Hi; t++ {
				g.AddEdge(u, index[t])
			}
		}
	}
	return g, times, index
}

// FeasibleMulti reports whether every job of the multi-interval instance
// can be assigned a distinct allowed time (maximum matching saturates the
// job side).
func FeasibleMulti(mi sched.MultiInstance) bool {
	g, _, _ := MultiGraph(mi)
	return MaxMatching(g).Size == mi.N()
}

// SolveMulti returns an arbitrary feasible schedule for the
// multi-interval instance via maximum matching, or false if infeasible.
// No attempt is made to minimize spans; this is the "any feasible
// schedule is a (1+α)-approximation" baseline of §3.
func SolveMulti(mi sched.MultiInstance) (sched.MultiSchedule, bool) {
	g, times, _ := MultiGraph(mi)
	m := MaxMatching(g)
	if m.Size != mi.N() {
		return sched.MultiSchedule{}, false
	}
	out := sched.MultiSchedule{Times: make([]int, mi.N())}
	for u := 0; u < mi.N(); u++ {
		out.Times[u] = times[m.MatchL[u]]
	}
	return out, true
}

// ExtendSchedule implements Lemma 3: given a feasible partial schedule
// (jobTimes[i] = execution time of job i, or absent) of a feasible
// instance, extend it to all jobs by repeatedly reversing augmenting
// paths, each of which adds exactly one new execution time. It returns
// the full schedule, or false if the instance is infeasible.
//
// The span guarantee of Lemma 3 — the result has at most g + (n − n′)
// spans when the partial schedule has g spans (each new execution time
// starts at most one new span; path reversal only relocates jobs among
// times that already execute something) — is verified by property tests.
func ExtendSchedule(mi sched.MultiInstance, partial map[int]int) (sched.MultiSchedule, bool) {
	g, times, index := MultiGraph(mi)
	m := Matching{
		Size:   0,
		MatchL: make([]int, g.NLeft),
		MatchR: make([]int, g.NRight),
	}
	for i := range m.MatchL {
		m.MatchL[i] = unmatched
	}
	for i := range m.MatchR {
		m.MatchR[i] = unmatched
	}
	for job, t := range partial {
		v, ok := index[t]
		if !ok || !mi.Jobs[job].Contains(t) || m.MatchR[v] != unmatched {
			return sched.MultiSchedule{}, false
		}
		m.MatchL[job] = v
		m.MatchR[v] = job
		m.Size++
	}
	for u := 0; u < g.NLeft; u++ {
		if m.MatchL[u] == unmatched && !AugmentFrom(g, &m, u) {
			return sched.MultiSchedule{}, false
		}
	}
	out := sched.MultiSchedule{Times: make([]int, mi.N())}
	for u := 0; u < mi.N(); u++ {
		out.Times[u] = times[m.MatchL[u]]
	}
	return out, true
}
