package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// tailLadder holds the percentiles a tail may be reported at. The tail
// is the highest of them with at least minBeyond samples above it; a
// short ladder keeps the reported percentile the same between runs
// whose sample counts differ a little.
var tailLadder = []int{99, 90, 50}

const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail returns the tail percentile of xs under the ladder rule and the
// percentile it was taken at.
func tail(xs []float64) (value float64, pct int) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	for _, p := range tailLadder {
		rank := (p*n + 99) / 100 // nearest rank, 1-based
		if n-rank >= minBeyond {
			return s[rank-1], p
		}
	}
	return quantile(s, 0.5), 50
}

// p50 returns the nearest-rank median, the same rank rule tail uses, so
// a tail that falls back to p50 never reads below the median.
func p50(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// window is one slice of a measured phase.
type window struct {
	lat []float64     // ms per completed op
	cpu time.Duration // program CPU spent in the window
	dur time.Duration // wall length (closed loops)
}

// windowCount is how many windows a measured phase is cut into: one per
// three seconds, at least one.
func windowCount(e *env) int { return max(1, int(e.seconds/3)) }

// windowed records latency, CPU per op and (withThroughput) ops per
// second as medians over the windows, so that one disturbed stretch of
// a run moves its result less.
func (r *report) windowed(ws []window, withThroughput bool) {
	var mid, tl, cpu, tput []float64
	pcts := map[int]bool{}
	n := 0
	for _, w := range ws {
		if len(w.lat) == 0 {
			continue
		}
		v, p := tail(w.lat)
		mid, tl = append(mid, p50(w.lat)), append(tl, v)
		pcts[p] = true
		cpu = append(cpu, ms(w.cpu)/float64(len(w.lat)))
		if w.dur > 0 {
			tput = append(tput, float64(len(w.lat))/w.dur.Seconds())
		}
		n += len(w.lat)
	}
	r.line("report windows p50_ms=%s tail_ms=%s cpu_ms_per_op=%s", fmtList(mid), fmtList(tl), fmtList(cpu))
	var ps []string
	for p := range pcts {
		ps = append(ps, fmt.Sprintf("p%d", p))
	}
	slices.Sort(ps)
	note := fmt.Sprintf("median of %d windows, samples=%d", len(mid), n)
	r.set("latency_p50_ms", median(mid), note)
	r.set("latency_tail_ms", median(tl), fmt.Sprintf("percentile=%s per window, %s", strings.Join(ps, ","), note))
	r.set("cpu_ms_per_op", median(cpu), "program user+sys, "+note)
	if withThroughput {
		r.set("throughput_ops_s", median(tput), note)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, ",")
}
