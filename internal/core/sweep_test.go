package core

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// TestPendingSweepMatchesScan: the amortised pendingSweep compute uses
// must give pendingAfter's O(k) rescan at every candidate grid index —
// for j_k's own case-B range and for arbitrary ranges, on the anchor
// grid and the FullGrid, at small and at large absolute coordinates.
func TestPendingSweepMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 80; trial++ {
		in := workload.Multiproc(rng, 1+rng.Intn(10), 1+rng.Intn(3), 4+rng.Intn(30), 1+rng.Intn(8))
		if trial%2 == 1 {
			off := 1 << 61
			if rng.Intn(2) == 0 {
				off = -off
			}
			for i := range in.Jobs {
				in.Jobs[i].Release += off
				in.Jobs[i].Deadline += off
			}
		}
		for _, full := range []bool{false, true} {
			b := newBase(in)
			if full {
				lo, hi := in.TimeHorizon()
				b.grid = b.grid[:0]
				for t := lo; t <= hi; t++ {
					b.grid = append(b.grid, t)
				}
			}
			e := newEngine(b, gapModel{p: b.p})
			g := len(e.grid)
			for sample := 0; sample < 150; sample++ {
				i1 := rng.Intn(g + 1)
				i2 := i1 + rng.Intn(g+1-i1)
				t1, t2 := e.t1val[i1], e.t2val[i2]
				list := e.list(t1, t2)
				for k := 1; k <= len(list); k++ {
					lo, hi := e.splitRange(e.jobs[list[k-1]], t1, t2)
					rlo := rng.Intn(g)
					ranges := [][2]int{{lo, hi}, {rlo, rlo + 1 + rng.Intn(g-rlo)}}
					for _, r := range ranges {
						if r[0] >= r[1] {
							continue
						}
						pend := make([]int, r[1]-r[0])
						for x := range pend {
							pend[x] = -7 // the sweep must not rely on a cleared buffer
						}
						e.pendingSweep(list, k, r[0], pend)
						for gi := r[0]; gi < r[1]; gi++ {
							if got, want := pend[gi-r[0]], pendingAfter(e.jobs, list, k, e.grid[gi]); got != want {
								t.Fatalf("full=%v [%d,%d] k=%d gi=%d: sweep %d, scan %d (jobs %v)",
									full, t1, t2, k, gi, got, want, in.Jobs)
							}
						}
					}
				}
			}
		}
	}
}
