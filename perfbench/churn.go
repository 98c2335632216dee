package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/heur"
	"repro/internal/sched"
)

// session-churn: nproc clients, closed loop, each holding one
// /v1/session over well-separated bursts. One op is an atomic delta
// (remove one job of a burst, add one fresh job to the same burst)
// followed by a session solve.
const (
	churnBursts  = 16
	churnPerB    = 24
	churnSpacing = 100 // burst b occupies [b*churnSpacing, b*churnSpacing+churnWidth+5]
	churnWidth   = 24
	churnProcs   = 2
	churnAlpha   = 2.0
	// churnFullCheck: every this many ops the replayed job set is also
	// solved whole, from scratch, to confirm the per-burst references.
	churnFullCheck = 64
	// churnRSSOps is the op count at which peak RSS is read.
	churnRSSOps = 6000
)

// churnOp is one delta: job slot s of burst b is replaced by job.
type churnOp struct {
	b, s int
	job  sched.Job
}

// churnClient is one client's seeded input: its objective, the initial
// bursts, and its op stream.
type churnClient struct {
	objective string
	alpha     float64
	bursts    [][]sched.Job
	ops       []churnOp
}

func churnJob(rng *rand.Rand, b int) sched.Job {
	r := b*churnSpacing + rng.Intn(churnWidth)
	return sched.Job{Release: r, Deadline: r + 1 + rng.Intn(4)}
}

// feasibleBurst reports whether jobs fit on churnProcs processors. The
// greedy fails exactly on infeasible instances and runs in O(n log n).
func feasibleBurst(jobs []sched.Job) bool {
	_, err := heur.Greedy(sched.Instance{Jobs: jobs, Procs: churnProcs})
	return err == nil
}

// newChurnClient draws client c's bursts and maxOps ops; every state
// along the stream is feasible.
func newChurnClient(seed int64, c, bursts, perB, maxOps int) churnClient {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	cl := churnClient{objective: sched.WireGaps}
	if c%2 == 1 {
		cl.objective, cl.alpha = sched.WirePower, churnAlpha
	}
	cl.bursts = make([][]sched.Job, bursts)
	for b := range cl.bursts {
		for {
			jobs := make([]sched.Job, perB)
			for i := range jobs {
				jobs[i] = churnJob(rng, b)
			}
			if feasibleBurst(jobs) {
				cl.bursts[b] = jobs
				break
			}
		}
	}
	cur := make([][]sched.Job, bursts)
	for b := range cur {
		cur[b] = append([]sched.Job(nil), cl.bursts[b]...)
	}
	for len(cl.ops) < maxOps {
		b := rng.Intn(bursts)
		s := rng.Intn(perB)
		old := cur[b][s]
		for {
			cur[b][s] = churnJob(rng, b)
			if feasibleBurst(cur[b]) {
				break
			}
			cur[b][s] = old
		}
		cl.ops = append(cl.ops, churnOp{b, s, cur[b][s]})
	}
	return cl
}

func (cl churnClient) allJobs(bursts [][]sched.Job) []sched.Job {
	var jobs []sched.Job
	for _, b := range bursts {
		jobs = append(jobs, b...)
	}
	return jobs
}

// churnSession is a client's live session on one daemon.
type churnSession struct {
	id  string
	ids [][]int // server job id of each burst slot
}

// openSession creates the client's session with its initial jobs and
// runs the first (cold) solve, checking its cost against want.
func openSession(c *http.Client, url string, cl churnClient, want float64) (*churnSession, error) {
	req := sched.SessionCreateRequest{Objective: cl.objective, Alpha: cl.alpha, Procs: churnProcs,
		Jobs: cl.allJobs(cl.bursts)}
	status, body, err := post(c, url+"/v1/session", mustJSON(req))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("session create: status %d: %s", status, body)
	}
	resp, err := sched.DecodeSessionResponse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if len(resp.JobIDs) != len(req.Jobs) {
		return nil, fmt.Errorf("session create: %d ids for %d jobs", len(resp.JobIDs), len(req.Jobs))
	}
	s := &churnSession{id: resp.Session}
	k := 0
	for _, b := range cl.bursts {
		s.ids = append(s.ids, append([]int(nil), resp.JobIDs[k:k+len(b)]...))
		k += len(b)
	}
	got, err := s.solve(c, url, cl.objective)
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("initial session cost %v, reference %v", got, want)
	}
	return s, nil
}

func (s *churnSession) solve(c *http.Client, url, objective string) (float64, error) {
	status, body, err := post(c, url+"/v1/session/"+s.id+"/solve", nil)
	if err != nil {
		return 0, err
	}
	return solveCost(status, body, objective)
}

// step applies op as one atomic delta, then solves; it returns the
// served cost.
func (s *churnSession) step(c *http.Client, url, objective string, op churnOp) (float64, error) {
	delta := sched.SessionDeltaRequest{Add: []sched.Job{op.job}, Remove: []int{s.ids[op.b][op.s]}}
	status, body, err := post(c, url+"/v1/session/"+s.id+"/delta", mustJSON(delta))
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("delta: status %d: %s", status, bytes.TrimSpace(body))
	}
	resp, err := sched.DecodeSessionResponse(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if len(resp.JobIDs) != 1 {
		return 0, fmt.Errorf("delta: %d ids for 1 added job", len(resp.JobIDs))
	}
	s.ids[op.b][op.s] = resp.JobIDs[0]
	return s.solve(c, url, objective)
}

// churnRefs computes the reference cost after each of cl's first n ops
// by replaying the job set: each burst is solved from scratch through
// the facade and the costs summed in burst order (bursts lie further
// apart than any split width, so they are independent fragments, and
// alpha is integral, so the sums are exact). Every churnFullCheck ops
// the whole replayed set is also solved from scratch and must agree.
func churnRefs(cl churnClient, n int) ([]float64, float64, error) {
	cur := make([][]sched.Job, len(cl.bursts))
	costs := make([]float64, len(cl.bursts))
	for b := range cur {
		cur[b] = append([]sched.Job(nil), cl.bursts[b]...)
		c, err := referenceCost(sched.Instance{Jobs: cur[b], Procs: churnProcs}, cl.objective, cl.alpha)
		if err != nil {
			return nil, 0, err
		}
		costs[b] = c
	}
	sum := func() float64 {
		var t float64
		for _, c := range costs {
			t += c
		}
		return t
	}
	full := func(want float64) error {
		c, err := referenceCost(sched.Instance{Jobs: cl.allJobs(cur), Procs: churnProcs}, cl.objective, cl.alpha)
		if err != nil {
			return err
		}
		if c != want {
			return fmt.Errorf("whole-set reference %v differs from per-burst sum %v", c, want)
		}
		return nil
	}
	initial := sum()
	if err := full(initial); err != nil {
		return nil, 0, err
	}
	refs := make([]float64, n)
	for k, op := range cl.ops[:n] {
		cur[op.b][op.s] = op.job
		c, err := referenceCost(sched.Instance{Jobs: cur[op.b], Procs: churnProcs}, cl.objective, cl.alpha)
		if err != nil {
			return nil, 0, err
		}
		costs[op.b] = c
		refs[k] = sum()
		if k%churnFullCheck == churnFullCheck-1 {
			if err := full(refs[k]); err != nil {
				return nil, 0, err
			}
		}
	}
	return refs, initial, nil
}

// churnInputs generates every client's input for a run of e.
func churnInputs(e *env) ([]churnClient, int, int) {
	bursts, perB, maxOps := churnBursts, churnPerB, 100000
	if e.short {
		bursts, perB, maxOps = 4, 12, 4000
	}
	cls := make([]churnClient, e.nproc)
	for c := range cls {
		cls[c] = newChurnClient(e.seed, c, bursts, perB, maxOps)
	}
	return cls, bursts, perB
}

func runSessionChurn(e *env) (*report, error) {
	r := newReport()
	cls, bursts, perB := churnInputs(e)
	initial := make([]float64, len(cls))
	for c, cl := range cls {
		_, init, err := churnRefs(cl, 0)
		if err != nil {
			return nil, err
		}
		initial[c] = init
	}
	fp := fingerprint(cls)
	r.notes["fingerprint"] = fp
	r.line("inputs workload=session-churn seed=%d fingerprint=%s clients=%d bursts=%d jobs_per_burst=%d procs=%d",
		e.seed, fp, len(cls), bursts, perB, churnProcs)

	client := newClient(e.nproc)
	defer client.CloseIdleConnections()
	type live struct {
		d    *daemon
		sess []*churnSession
	}
	lv, setup, err := setupMedian(setupReps, func() (live, error) {
		d, err := startDaemon(e.daemon)
		if err != nil {
			return live{}, err
		}
		l := live{d: d, sess: make([]*churnSession, len(cls))}
		errs := make([]error, len(cls))
		var wg sync.WaitGroup
		for c := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.sess[c], errs[c] = openSession(client, d.url, cls[c], initial[c])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				d.stop()
				return live{}, fmt.Errorf("session set-up: %w", err)
			}
		}
		client.CloseIdleConnections()
		return l, nil
	}, func(l live) { l.d.stop() })
	if err != nil {
		return nil, err
	}
	defer lv.d.stop()
	r.set("setup_s", setup, "median of 5 daemon starts + session creates + first solves")

	// The measured phase is cut into windows of equal length; the
	// daemon's CPU time is read at every boundary and each op counts in
	// the window it completed in.
	pid := lv.d.cmd.Process.Pid
	k := windowCount(e)
	wlen := time.Duration(e.seconds / float64(k) * float64(time.Second))
	cpuAt := make([]time.Duration, k+1)
	statErrs := make([]error, k+1)
	start := time.Now()
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for w := 0; w <= k; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w) * wlen)))
			ps, err := readProcStat(pid)
			cpuAt[w], statErrs[w] = ps.cpu, err
		}
	}()
	// Every op can leave a new fragment in the daemon's cache, so peak
	// RSS is read once a fixed number of ops has completed (or at the
	// end of a phase that completes fewer): a faster program does not
	// read as a larger one.
	var peak procStat
	var peakErr error
	var peakOnce sync.Once
	readPeak := func() { peakOnce.Do(func() { peak, peakErr = readProcStat(pid) }) }
	ph := churnPhase(client, lv.d.url, cls, lv.sess, start, e.seconds, churnRSSOps, readPeak)
	sampler.Wait()
	readPeak()
	if err := errors.Join(append(statErrs, peakErr)...); err != nil {
		return nil, err
	}
	if len(ph.count(r)) == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	for c := range cls {
		if len(ph.lat[c]) == len(cls[c].ops) {
			return nil, fmt.Errorf("client %d ran out of its %d generated ops before the phase ended", c, len(cls[c].ops))
		}
	}
	ws := make([]window, k)
	for w := range ws {
		ws[w].cpu, ws[w].dur = cpuAt[w+1]-cpuAt[w], wlen
	}
	for c := range cls {
		for i, at := range ph.at[c] {
			w := min(int(at/wlen), k-1)
			ws[w].lat = append(ws[w].lat, ph.lat[c][i])
		}
	}
	r.windowed(ws, true)
	r.set("peak_rss_mb", peak.peakMB, fmt.Sprintf("daemon VmHWM after %d ops", churnRSSOps))
	ph.verify(r, cls)
	r.errorRate("")
	r.line("report whole phase: ops=%d in %.2fs", r.attempted, ph.elapsed.Seconds())
	for c := range cls {
		r.line("report client %d objective=%s ops=%d p50_ms=%.3f", c, cls[c].objective, len(ph.lat[c]), median(ph.lat[c]))
	}
	return r, nil
}

// churnResult is the outcome of one closed-loop churn phase.
type churnResult struct {
	lat     [][]float64       // per client, ms per op (delta + solve)
	at      [][]time.Duration // per client, completion time of each op since the start
	got     [][]float64       // per client, served cost after each op
	errs    []error
	elapsed time.Duration
}

// churnPhase runs every client's ops in a closed loop against url until
// seconds have passed since start or the ops run out. A failed op stops
// its client: the session's job ids are then unknown. A non-nil at is
// called once atOps ops have completed across all clients.
func churnPhase(c *http.Client, url string, cls []churnClient, sess []*churnSession, start time.Time, seconds float64,
	atOps int64, at func()) churnResult {
	var done atomic.Int64
	n := len(cls)
	res := churnResult{lat: make([][]float64, n), at: make([][]time.Duration, n), got: make([][]float64, n), errs: make([]error, n)}
	var wg sync.WaitGroup
	for k := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range cls[k].ops {
				if time.Since(start).Seconds() >= seconds {
					return
				}
				t0 := time.Now()
				cost, err := sess[k].step(c, url, cls[k].objective, op)
				if err != nil {
					res.errs[k] = err
					return
				}
				now := time.Now()
				res.lat[k] = append(res.lat[k], ms(now.Sub(t0)))
				res.at[k] = append(res.at[k], now.Sub(start))
				if done.Add(1) == atOps && at != nil {
					at()
				}
				res.got[k] = append(res.got[k], cost)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// count adds the phase's ops to r's attempted and failed counts and
// returns every op latency.
func (res churnResult) count(r *report) []float64 {
	var all []float64
	for k := range res.lat {
		all = append(all, res.lat[k]...)
		r.attempted += len(res.lat[k])
		if res.errs[k] != nil {
			r.attempted++
			r.failed++
			r.fail("client %d op %d: %v", k, len(res.lat[k]), res.errs[k])
		}
	}
	return all
}

// verify checks every served cost against the replayed from-scratch
// references, one goroutine per client.
func (res churnResult) verify(r *report, cls []churnClient) {
	mismatches := make([]int, len(cls))
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for k := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refs, _, err := churnRefs(cls[k], len(res.got[k]))
			if err != nil {
				errs[k] = err
				return
			}
			for i, g := range res.got[k] {
				if g != refs[i] {
					if mismatches[k] == 0 {
						errs[k] = fmt.Errorf("op %d: cost %v, reference %v", i, g, refs[i])
					}
					mismatches[k]++
				}
			}
		}()
	}
	wg.Wait()
	for k := range cls {
		r.failed += mismatches[k]
		if errs[k] != nil {
			r.fail("client %d: %v", k, errs[k])
		}
	}
}
