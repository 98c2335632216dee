package main

// Experiment E23: the exact tier at p = 1. Two tables:
//
//  1. Head to head — single-fragment dense single-processor instances
//     solved by the DP engine (internal/core) and by the polynomial
//     single-machine DP (internal/poly), which the facade no longer
//     routes to and which stays as the p = 1 reference. At p = 1 the
//     two are the same dynamic program (poly just specializes the level
//     dimensions away): they expand identical state counts and their
//     times track within noise. What made a second backend look
//     necessary was admission: the multiprocessor index-space price
//     G²·(n+1)·8/32 blows the default budget around n ≈ 800, while the
//     single-machine frontier G·(n+1) — the price prep.StateEstimate
//     now charges every p = 1 fragment — admits thousands of jobs. The
//     table records that one estimate and its verdict next to the
//     (equal) wall times.
//
//  2. Reach — ModeAuto under the default budget on mixed instances
//     whose oversized single-processor fragment has n in the thousands
//     (the classes E20/E21 used to send to the heuristic). The DP
//     engine serves those fragments, so the whole solution comes back
//     certified optimal: cost/LB = 1.00 with zero heuristic fragments,
//     at the recorded wall times.

import (
	"math/rand"
	"strconv"
	"time"

	gapsched "repro"
	"repro/internal/core"
	"repro/internal/poly"
	"repro/internal/prep"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("E23", "Exact tier at p=1: DP vs the poly reference, and admission reach", runE23)
}

func runE23(cfg config) []*stats.Table {
	return []*stats.Table{
		e23Crossover(cfg),
		e23Reach(cfg),
	}
}

func e23Crossover(cfg config) *stats.Table {
	sizes := []int{100, 200, 400, 800}
	if cfg.quick {
		sizes = []int{50, 100}
	}
	tb := stats.NewTable("objective", "dense n", "dp ms", "poly ms", "expanded",
		"dp ≡ poly", "estimate", "admitted")
	for _, obj := range []struct {
		name  string
		alpha float64
		power bool
	}{
		{"gaps", 0, false},
		{"power α=3", 3, true},
	} {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(cfg.seed))
			in := workload.StressDense(rng, n, 1)

			t0 := time.Now()
			var dpCost float64
			var dpExpanded int
			if obj.power {
				res, err := core.SolvePower(in, obj.alpha)
				if err != nil {
					panic(err)
				}
				dpCost, dpExpanded = res.Power, res.ExpandedStates
			} else {
				res, err := core.SolveGaps(in)
				if err != nil {
					panic(err)
				}
				dpCost, dpExpanded = float64(res.Spans), res.ExpandedStates
			}
			dpEl := time.Since(t0)

			t0 = time.Now()
			var pres poly.Result
			var err error
			if obj.power {
				pres, err = poly.SolvePower(in, obj.alpha)
			} else {
				pres, err = poly.SolveGaps(in)
			}
			if err != nil {
				panic(err)
			}
			polyEl := time.Since(t0)

			// The admission price exactly as ModeAuto charges it.
			est := prep.StateEstimate(in)
			tb.AddRow(obj.name, n,
				float64(dpEl.Microseconds())/1000,
				float64(polyEl.Microseconds())/1000,
				dpExpanded,
				boolMark(dpCost == pres.Cost && dpExpanded == pres.ExpandedStates),
				est, boolMark(est <= gapsched.DefaultStateBudget))
		}
	}
	return tb
}

func e23Reach(cfg config) *stats.Table {
	// Dense single-processor classes far beyond the multiprocessor
	// price's reach (n ≥ 800, see E21) — once heuristic, now certified
	// exact by the DP engine under the single-machine price.
	bigNs := []int{2000, 4000}
	if cfg.quick {
		bigNs = []int{800, 2000}
	}
	tb := stats.NewTable("big fragment", "estimate", "budget", "ms",
		"dp frags", "heur frags", "of", "cost", "lower bound", "cost/LB", "certified exact")
	for _, bigN := range bigNs {
		in, big := e21Mixed(cfg.seed, bigN)
		est := prep.StateEstimate(big)
		auto := gapsched.Solver{Mode: gapsched.ModeAuto}
		t0 := time.Now()
		sol, err := auto.Solve(in)
		el := time.Since(t0)
		if err != nil {
			panic(err)
		}
		cost := float64(sol.Spans)
		certified := sol.HeuristicFragments == 0 && cost == sol.LowerBound
		tb.AddRow("dense n="+strconv.Itoa(bigN), est, gapsched.DefaultStateBudget,
			float64(el.Microseconds())/1000,
			sol.Subinstances-sol.HeuristicFragments, sol.HeuristicFragments, sol.Subinstances,
			cost, sol.LowerBound, cost/sol.LowerBound,
			boolMark(certified))
	}
	return tb
}
