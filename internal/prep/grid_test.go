package prep

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/sched"
)

// mapGrid is the map-set builder the exact engines used before the
// run merge: every time of every clipped neighbourhood [a−n, a+n]
// inserted into a set, then sorted. Θ(n²) inserts, kept only as the
// oracle for AnchorGrid and GridSize.
func mapGrid(in sched.Instance) []int {
	n := len(in.Jobs)
	lo, hi := in.TimeHorizon()
	set := make(map[int]struct{})
	for _, j := range in.Jobs {
		for _, a := range [2]int{j.Release, j.Deadline} {
			for t := max(a-n, lo); t <= min(a+n, hi); t++ {
				set[t] = struct{}{}
			}
		}
	}
	grid := make([]int, 0, len(set))
	for t := range set {
		grid = append(grid, t)
	}
	sort.Ints(grid)
	return grid
}

// checkGrid compares AnchorGrid and GridSize against the oracle, and
// checks the merge left disjoint, non-adjacent, increasing runs.
func checkGrid(t *testing.T, name string, in sched.Instance) {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatalf("%s: invalid test instance: %v", name, err)
	}
	got, want := AnchorGrid(in), mapGrid(in)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: AnchorGrid = %v, oracle %v (jobs %v)", name, got, want, in.Jobs)
	}
	if size := GridSize(in); size != len(got) {
		t.Fatalf("%s: GridSize = %d, len(AnchorGrid) = %d", name, size, len(got))
	}
	runs := anchorRuns(in)
	for x, r := range runs {
		if r.lo > r.hi || x > 0 && r.lo <= runs[x-1].hi+1 {
			t.Fatalf("%s: runs %v not disjoint, non-adjacent and increasing", name, runs)
		}
	}
}

func TestAnchorGridEdgeCases(t *testing.T) {
	const m = sched.MaxCoord
	job := func(r, d int) sched.Job { return sched.Job{Release: r, Deadline: d} }
	cases := []struct {
		name string
		jobs []sched.Job
		runs int
	}{
		{"n=1 point", []sched.Job{job(7, 7)}, 1},
		{"n=1 wide window", []sched.Job{job(-3, 40)}, 2},
		// Every neighbourhood covers the whole horizon: the grid is the
		// horizon, one run.
		{"fully clipped", []sched.Job{job(0, 2), job(1, 2), job(0, 1), job(2, 2)}, 1},
		// n=2: [0,2] and [3,5] touch and merge; a one-point hole keeps
		// [0,2] and [4,6] apart.
		{"touching runs", []sched.Job{job(0, 0), job(5, 5)}, 1},
		{"one-point hole", []sched.Job{job(0, 0), job(6, 6)}, 2},
		{"duplicate anchors", []sched.Job{job(10, 10), job(10, 10), job(10, 10)}, 1},
		{"near +MaxCoord", []sched.Job{job(m-5, m), job(m-100, m-90)}, 3},
		{"near −MaxCoord", []sched.Job{job(-m, -m+3), job(-m+50, -m+60)}, 3},
		{"horizon MaxCoord wide", []sched.Job{job(0, 0), job(m, m)}, 2},
	}
	for _, c := range cases {
		in := sched.NewInstance(c.jobs)
		checkGrid(t, c.name, in)
		if got := len(anchorRuns(in)); got != c.runs {
			t.Fatalf("%s: %d runs, want %d", c.name, got, c.runs)
		}
	}
	if g := AnchorGrid(sched.Instance{}); len(g) != 0 {
		t.Fatalf("empty instance grid %v, want none", g)
	}
}

// TestAnchorGridMatchesMapOracle drives random instances whose horizon
// sits at the origin, at negative times and against either coordinate
// bound, with windows from points to wider than the whole grid.
func TestAnchorGridMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const m = sched.MaxCoord
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		span := 1 + rng.Intn(6*n*n)
		var base int
		switch trial % 4 {
		case 0:
			base = 0
		case 1:
			base = -rng.Intn(1000)
		case 2:
			base = m - span
		case 3:
			base = -m
		}
		jobs := make([]sched.Job, n)
		for i := range jobs {
			r := base + rng.Intn(span)
			jobs[i] = sched.Job{Release: r, Deadline: r + rng.Intn(min(span-(r-base), 3*n))}
		}
		in := sched.NewMultiprocInstance(jobs, 1+rng.Intn(3))
		checkGrid(t, "random", in)
	}
}
