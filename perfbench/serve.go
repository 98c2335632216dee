package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	gapsched "repro"
	"repro/internal/sched"
	"repro/internal/workload"
)

// serve-bursty: open-loop POST /v1/solve at a fixed offered rate over a
// pool of small bursty instances, most of them repeated (cache hits)
// and one request in eight a fresh instance (a miss).
const (
	burstyRate     = 400.0 // offered requests per second in the measured phase
	burstyPool     = 64
	burstyN        = 30
	burstyProcs    = 2
	burstyAlpha    = 2.0
	burstyFreshOne = 8 // one request in this many is a never-seen instance
	// tailLimit is the latency objective max_rate_rps is searched under.
	tailLimit = 10.0 // ms
)

// solveReq is one request of a daemon workload with its reference cost.
type solveReq struct {
	body      []byte
	objective string
	want      float64
	in        sched.Instance
}

// burstyInputs is serve-bursty's seeded input: the instance pool with
// reference costs under both objectives, and the rng that draws the
// request stream (pool picks and fresh instances).
type burstyInputs struct {
	n     int
	pool  []sched.Instance
	ref   [][2]float64 // gaps, power
	rng   *rand.Rand
	count int // requests drawn so far
	hash  []byte
}

func burstyInstance(rng *rand.Rand, n int) sched.Instance {
	for {
		in := workload.Bursty(rng, n, 3, 6*n, 4, 5)
		in.Procs = burstyProcs
		if gapsched.Feasible(in) {
			return in
		}
	}
}

// referenceCost solves in directly through the facade (exact, no cache).
func referenceCost(in sched.Instance, objective string, alpha float64) (float64, error) {
	s := gapsched.Solver{}
	if objective == sched.WirePower {
		s.Objective, s.Alpha = gapsched.ObjectivePower, alpha
	}
	sol, err := s.Solve(in)
	if err != nil {
		return 0, err
	}
	return s.Objective.Cost(sol), nil
}

func newBurstyInputs(seed int64, short bool) (*burstyInputs, error) {
	b := &burstyInputs{n: burstyN, rng: rand.New(rand.NewSource(seed))}
	size := burstyPool
	if short {
		size, b.n = 16, 20
	}
	for range size {
		in := burstyInstance(b.rng, b.n)
		g, err := referenceCost(in, sched.WireGaps, 0)
		if err != nil {
			return nil, err
		}
		p, err := referenceCost(in, sched.WirePower, burstyAlpha)
		if err != nil {
			return nil, err
		}
		b.pool = append(b.pool, in)
		b.ref = append(b.ref, [2]float64{g, p})
	}
	return b, nil
}

// wireRequest builds the /v1/solve body of in under objective (default
// wire mode, exact).
func wireRequest(in sched.Instance, objective string, alpha float64, mode string) sched.SolveRequest {
	r := sched.SolveRequest{Objective: objective, Procs: in.Procs, Mode: mode, Jobs: in.Jobs}
	if objective == sched.WirePower {
		r.Alpha = alpha
	}
	return r
}

// next draws n more requests of the stream: objectives alternate,
// every burstyFreshOne-th request is a fresh instance (its reference
// solved here, outside any timing), the rest are pool picks.
func (b *burstyInputs) next(n int) ([]*solveReq, error) {
	out := make([]*solveReq, n)
	h := sha256.New()
	h.Write(b.hash)
	for i := range out {
		k := b.count
		b.count++
		obj, alpha, col := sched.WireGaps, 0.0, 0
		if k%2 == 1 {
			obj, alpha, col = sched.WirePower, burstyAlpha, 1
		}
		r := &solveReq{objective: obj}
		if k%burstyFreshOne == burstyFreshOne-1 {
			r.in = burstyInstance(b.rng, b.n)
			want, err := referenceCost(r.in, obj, alpha)
			if err != nil {
				return nil, err
			}
			r.want = want
		} else {
			j := b.rng.Intn(len(b.pool))
			r.in, r.want = b.pool[j], b.ref[j][col]
		}
		r.body = mustJSON(wireRequest(r.in, obj, alpha, ""))
		h.Write(r.body)
		out[i] = r
	}
	b.hash = h.Sum(nil)
	return out, nil
}

// fingerprint covers the pool and every request drawn so far.
func (b *burstyInputs) fingerprint() string {
	h := sha256.New()
	h.Write([]byte(fingerprint(b.pool)))
	h.Write(b.hash)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// httpSolver posts solve requests to one base URL over a bounded
// connection pool and checks each answer's cost bit for bit.
type httpSolver struct {
	c   *http.Client
	url string
}

func (h httpSolver) do(r *solveReq) error {
	status, body, err := post(h.c, h.url+"/v1/solve", r.body)
	if err != nil {
		return err
	}
	got, err := solveCost(status, body, r.objective)
	if err != nil {
		return err
	}
	if got != r.want {
		return fmt.Errorf("cost %v, reference %v", got, r.want)
	}
	return nil
}

// openResult is the outcome of one open-loop phase.
type openResult struct {
	lat       []float64 // ms from due time, successful requests
	byIndex   []float64 // ms from due time by request index, NaN where it failed
	svc       []float64 // ms from send to answer, successful requests
	lagP99    float64   // generator lateness, ms
	lagMean   float64
	interval  time.Duration // scheduled gap between sends
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration // first due time → last completion
	offered   float64       // requests/s actually offered by the generator
	early     float64       // p50 of the first quarter, ms
	late      float64       // p50 of the last quarter, ms
	maxQueue  int           // deepest generator→connection queue seen
}

// growing reports a backlog that grows through the phase: latency late
// in the phase well above latency early in it.
func (o openResult) growing() bool { return o.late > 1.5*o.early+1 }

// generatorBehind reports that the generator itself could not keep to
// the schedule, which invalidates the phase: it offered under 97% of the
// rate, or it sent requests more than a whole inter-arrival gap late on
// average. Single late sends are caught up at once (due times are
// fixed), and every request is timed from when it was due, so jitter
// below that shows in the latency rather than voiding the run.
func (o openResult) generatorBehind() bool {
	return o.lagMean > ms(o.interval) || o.offered < 0.97*float64(time.Second)/float64(o.interval)
}

// openLoop sends reqs at a fixed rate regardless of completions, over
// conns workers (one keep-alive connection each), timing every request
// from when it was due. A non-nil before is called by the generator
// just before it hands request i to the workers.
func openLoop(do func(*solveReq) error, reqs []*solveReq, rate float64, conns int, before func(i int)) openResult {
	type item struct {
		i   int
		due time.Time
	}
	n := len(reqs)
	lat := make([]float64, n)
	svc := make([]float64, n)
	ok := make([]bool, n)
	errs := make([]error, n)
	lags := make([]float64, n)
	ch := make(chan item, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	var endMu sync.Mutex
	var end time.Time
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				sent := time.Now()
				err := do(reqs[it.i])
				done := time.Now()
				lat[it.i], svc[it.i] = ms(done.Sub(it.due)), ms(done.Sub(sent))
				ok[it.i], errs[it.i] = err == nil, err
				endMu.Lock()
				if done.After(end) {
					end = done
				}
				endMu.Unlock()
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	maxQ := 0
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = ms(time.Since(due))
		if before != nil {
			before(i)
		}
		maxQ = max(maxQ, len(ch))
		ch <- item{i, due}
	}
	lastSend := time.Now()
	close(ch)
	wg.Wait()

	res := openResult{attempted: n, elapsed: end.Sub(start), maxQueue: maxQ, interval: interval,
		offered: float64(n) / max(lastSend.Sub(start).Seconds(), 1e-9)}
	for i := range reqs {
		if ok[i] {
			res.lat = append(res.lat, lat[i])
			res.svc = append(res.svc, svc[i])
			continue
		}
		lat[i] = math.NaN()
		res.failed++
		if res.firstErr == nil {
			res.firstErr = errs[i]
		}
	}
	res.byIndex = lat
	res.lagMean = mean(lags)
	slices.Sort(lags)
	res.lagP99 = quantile(lags, 0.99)
	q := max(n/4, 1)
	res.early, res.late = median(lat[:q]), median(lat[n-q:])
	return res
}

// coldFill sends every pool instance under both objectives once, over
// conns parallel callers, checking every answer.
func coldFill(h httpSolver, b *burstyInputs, conns int) error {
	var reqs []*solveReq
	for i, in := range b.pool {
		reqs = append(reqs,
			&solveReq{in: in, objective: sched.WireGaps, want: b.ref[i][0],
				body: mustJSON(wireRequest(in, sched.WireGaps, 0, ""))},
			&solveReq{in: in, objective: sched.WirePower, want: b.ref[i][1],
				body: mustJSON(wireRequest(in, sched.WirePower, burstyAlpha, ""))})
	}
	return closedLoop(reqs, conns, h.do)
}

// closedLoop runs do over reqs with conns callers, each sending its
// next request once the previous one completed; it returns the first
// error.
func closedLoop(reqs []*solveReq, conns int, do func(*solveReq) error) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += conns {
				if err := do(reqs[i]); err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runServeBursty(e *env) (*report, error) {
	r := newReport()
	in, err := newBurstyInputs(e.seed, e.short)
	if err != nil {
		return nil, err
	}
	n := int(burstyRate * e.seconds)
	reqs, err := in.next(n)
	if err != nil {
		return nil, err
	}
	fp := in.fingerprint()
	r.notes["fingerprint"] = fp
	r.line("inputs workload=serve-bursty seed=%d fingerprint=%s pool=%d n=%d procs=%d requests=%d fresh=1/%d",
		e.seed, fp, len(in.pool), in.n, burstyProcs, n, burstyFreshOne)

	client := newClient(e.nproc)
	defer client.CloseIdleConnections()
	d, setup, err := setupMedian(setupReps, func() (*daemon, error) {
		d, err := startDaemon(e.daemon)
		if err != nil {
			return nil, err
		}
		if err := coldFill(httpSolver{client, d.url}, in, e.nproc); err != nil {
			d.stop()
			return nil, fmt.Errorf("cold fill: %w", err)
		}
		client.CloseIdleConnections()
		return d, nil
	}, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r.set("setup_s", setup, "median of 5 daemon starts + cold-cache fills")
	h := httpSolver{client, d.url}

	// The measured phase is cut into windows by request index; the
	// daemon's CPU time is read at every window boundary.
	pid := d.cmd.Process.Pid
	k := windowCount(e)
	cpuAt := make([]time.Duration, k+1)
	starts := map[int]int{} // first request index → window
	for w := k - 1; w >= 0; w-- {
		starts[w*n/k] = w
	}
	var statErr error
	res := openLoop(h.do, reqs, burstyRate, e.nproc, func(i int) {
		if w, ok := starts[i]; ok {
			ps, err := readProcStat(pid)
			cpuAt[w], statErr = ps.cpu, errors.Join(statErr, err)
		}
	})
	after, err := readProcStat(pid)
	if err = errors.Join(statErr, err); err != nil {
		return nil, err
	}
	cpuAt[k] = after.cpu
	ws := make([]window, k)
	for w := range ws {
		for _, l := range res.byIndex[w*n/k : (w+1)*n/k] {
			if !math.IsNaN(l) {
				ws[w].lat = append(ws[w].lat, l)
			}
		}
		ws[w].cpu = cpuAt[w+1] - cpuAt[w]
	}
	if res.generatorBehind() {
		return nil, fmt.Errorf("invalid run: generator fell behind (lag mean %.3f ms, p99 %.3f ms; offered %.1f of %.0f req/s)",
			res.lagMean, res.lagP99, res.offered, burstyRate)
	}
	r.attempted, r.failed = res.attempted, res.failed
	if res.failed > 0 {
		r.fail("%d of %d requests failed; first: %v", res.failed, res.attempted, res.firstErr)
	}
	ok := float64(res.attempted - res.failed)
	r.windowed(ws, false)
	r.set("throughput_ops_s", ok/res.elapsed.Seconds(), fmt.Sprintf("goodput over the phase at offered %.0f req/s", burstyRate))
	r.set("peak_rss_mb", after.peakMB, "daemon VmHWM")
	r.line("report harness.offered_rps=%.1f achieved_rps=%.1f generator_lag_ms mean=%.4f p99=%.4f max_queue=%d",
		res.offered, ok/res.elapsed.Seconds(), res.lagMean, res.lagP99, res.maxQueue)
	r.line("report backlog early_p50_ms=%.3f late_p50_ms=%.3f growing=%v", res.early, res.late, res.growing())
	if res.growing() {
		r.line("WARNING: latency grew through the measured phase at %.0f req/s", burstyRate)
	}

	maxRate, probes, err := searchMaxRate(h, in, e, r)
	if err != nil {
		return nil, err
	}
	r.set("max_rate_rps", maxRate, fmt.Sprintf("tail ≤ %.0f ms, no errors, no growing backlog; %d probes: %s",
		tailLimit, len(probes), strings.Join(probes, ", ")))
	r.errorRate("(measured phase and rate search)")
	return r, nil
}

// searchMaxRate brackets the highest offered rate that meets the tail
// limit with zero errors and no growing backlog (doubling from the
// measured rate), then bisects until the bracket is within 5%. Probe
// requests are checked and counted in r like the measured ones. It
// returns the rate and one "rate:verdict" entry per probe.
func searchMaxRate(h httpSolver, in *burstyInputs, e *env, r *report) (float64, []string, error) {
	probeSec := 1.0
	if e.short {
		probeSec = 0.3
	}
	var probes []string
	try := func(rate float64) (bool, error) {
		reqs, err := in.next(int(rate * probeSec))
		if err != nil {
			return false, err
		}
		res := openLoop(h.do, reqs, rate, e.nproc, nil)
		r.attempted += res.attempted
		r.failed += res.failed
		tv, _ := tail(res.lat)
		why := "ok"
		switch {
		case res.failed > 0:
			r.fail("rate search at %.0f req/s: %d requests failed; first: %v", rate, res.failed, res.firstErr)
			why = fmt.Sprintf("%d-errors", res.failed)
		case res.generatorBehind():
			why = "generator-behind"
		case tv > tailLimit:
			why = fmt.Sprintf("tail=%.1fms", tv)
		case res.growing():
			why = "backlog"
		}
		probes = append(probes, fmt.Sprintf("%.0f:%s", rate, why))
		return why == "ok", nil
	}
	lo, hi := 0.0, 0.0
	const maxProbeRate = 12800
	for rate := burstyRate; ; {
		ok, err := try(rate)
		if err != nil {
			return 0, probes, err
		}
		if ok {
			lo = rate
			if hi != 0 || rate >= maxProbeRate {
				break
			}
			rate *= 2
		} else {
			hi = rate
			if lo != 0 || rate <= 25 {
				break
			}
			rate /= 2
		}
	}
	for lo > 0 && hi > 0 && (hi-lo)/lo > 0.05 {
		mid := (lo + hi) / 2
		ok, err := try(mid)
		if err != nil {
			return 0, probes, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes, nil
}
