package prep

import (
	"slices"

	"repro/internal/sched"
)

// The anchor grid (Baptiste's Prop 2.1, extended to profiles in
// internal/core's package doc): some optimal schedule executes jobs
// only at times within distance n of a release or a deadline. The grid
// is the union of the 2n neighbourhoods [a−n, a+n], clipped to the
// horizon; Baptiste–Chrobak–Dürr bound it at O(n²) points. It is built
// here once, as an O(n log n) merge of those neighbourhoods into
// disjoint runs, and both its consumers reduce to that merge: the exact
// engine expands the runs (AnchorGrid) and the admission price sums
// their lengths (GridSize) without materialising a point.

// gridRun is one maximal run [lo, hi] of consecutive grid times.
type gridRun struct{ lo, hi int }

// anchorRuns returns the anchor grid as disjoint, non-adjacent runs in
// increasing order. Every neighbourhood has the same radius n, so
// sorting the 2n anchors sorts the clipped neighbourhoods by both ends
// at once and a single pass merges them.
func anchorRuns(in sched.Instance) []gridRun {
	n := len(in.Jobs)
	lo, hi := in.TimeHorizon()
	anchors := make([]int, 0, 2*n)
	for _, j := range in.Jobs {
		anchors = append(anchors, j.Release, j.Deadline)
	}
	slices.Sort(anchors)
	var runs []gridRun
	for _, a := range anchors {
		from, to := max(a-n, lo), min(a+n, hi)
		if from > to {
			continue // an anchor outside the horizon (unvalidated input)
		}
		if last := len(runs) - 1; last >= 0 && from <= runs[last].hi+1 {
			runs[last].hi = max(runs[last].hi, to)
			continue
		}
		runs = append(runs, gridRun{from, to})
	}
	return runs
}

// AnchorGrid returns the exact engine's candidate execution times: the
// anchor grid, sorted ascending and duplicate-free. Its length is
// GridSize(in). Coordinates must lie within sched.MaxCoord, as Validate
// enforces.
func AnchorGrid(in sched.Instance) []int {
	runs := anchorRuns(in)
	grid := make([]int, 0, runsSize(runs))
	for _, r := range runs {
		for t := r.lo; t <= r.hi; t++ {
			grid = append(grid, t)
		}
	}
	return grid
}

// GridSize is len(AnchorGrid(in)) computed without materialising the
// grid, so admission can price a fragment whose grid it will never
// build.
func GridSize(in sched.Instance) int {
	return runsSize(anchorRuns(in))
}

func runsSize(runs []gridRun) int {
	size := 0
	for _, r := range runs {
		size += r.hi - r.lo + 1
	}
	return size
}
