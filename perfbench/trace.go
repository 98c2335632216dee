package main

// The traced run. It times the calls into each layer's public
// functions from the benchmark's own code, on the workload's own
// inputs, keeping spans in memory and writing them out at the end, and
// reads what the program already exports (/metrics, /v1/debug/traces,
// Solution counters). The end-to-end run never traces.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	gapsched "repro"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/fragcache"
	"repro/internal/heur"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/service"
)

// span is one timed layer call. Spans of one op share Trace; Parent is
// the enclosing span's ID (0 for an op's root span).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer records spans in memory. With on unset it records nothing and
// times nothing, which is what the overhead comparison runs against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	start []time.Time
}

func (t *tracer) begin(op, parent int, name string) int {
	if !t.on {
		return 0
	}
	now := time.Now()
	t.spans = append(t.spans, span{Trace: op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: now.Sub(t.t0).Nanoseconds()})
	t.start = append(t.start, now)
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	if !t.on {
		return 0
	}
	now := time.Now()
	t.spans[id-1].End = now.Sub(t.t0).Nanoseconds()
	return now.Sub(t.start[id-1])
}

// acc sums per-op layer quantities; a metric is its sum over ops.
type acc struct {
	sums map[string]float64
	ops  int
}

func newAcc() *acc { return &acc{sums: map[string]float64{}} }

func (a *acc) add(name string, v float64) { a.sums[name] += v }

func (a *acc) mean(name string) float64 { return a.sums[name] / float64(max(a.ops, 1)) }

// layerReq is one /v1/solve-shaped request the traced run pushes
// through the layers, with its facade routing and reference cost.
type layerReq struct {
	body      []byte
	objective string
	alpha     float64
	mode      gapsched.Mode
	want      float64
	backends  []string // per fragment: dp, poly or heuristic (set by facadePass)
}

func (lr layerReq) solver() gapsched.Solver {
	s := gapsched.Solver{Mode: lr.mode}
	if lr.objective == sched.WirePower {
		s.Objective, s.Alpha = gapsched.ObjectivePower, lr.alpha
	}
	return s
}

func (lr layerReq) instance() sched.Instance {
	req, err := sched.DecodeSolveRequest(bytes.NewReader(lr.body))
	if err != nil {
		panic(err) // the benchmark built the body itself
	}
	return req.Instance()
}

func (lr layerReq) plan(in sched.Instance) *prep.Plan {
	if lr.objective == sched.WirePower {
		return prep.ForPower(in, lr.alpha)
	}
	return prep.ForGaps(in)
}

// facadePass solves every request through gapsched.Solver (no cache),
// recording allocation, the tier counters and the per-fragment routing
// the chain replays. It returns the facade wall time per op (ms).
func facadePass(reqs []*layerReq, a *acc) ([]float64, error) {
	var walls []float64
	var m0, m1 runtime.MemStats
	for _, lr := range reqs {
		in := lr.instance()
		s := lr.solver()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		sol, err := s.Solve(in)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		if got := s.Objective.Cost(sol); !math.IsNaN(lr.want) && got != lr.want {
			return nil, fmt.Errorf("facade cost %v, reference %v", got, lr.want)
		}
		lr.want = s.Objective.Cost(sol)
		walls = append(walls, ms(d))
		a.ops++
		a.add("gapsched.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc))
		a.add("gapsched.dp_fragments", float64(sol.Subinstances-sol.PolyFragments-sol.HeuristicFragments))
		a.add("gapsched.poly_fragments", float64(sol.PolyFragments))
		a.add("gapsched.heur_fragments", float64(sol.HeuristicFragments))
		if lr.backends, err = routing(lr, in, sol); err != nil {
			return nil, err
		}
	}
	return walls, nil
}

// routing names the backend of each fragment. Uniform instances are
// read off the Solution counters; mixed ones are probed one fragment
// at a time through the facade.
func routing(lr *layerReq, in sched.Instance, sol gapsched.Solution) ([]string, error) {
	plan := lr.plan(in)
	out := make([]string, len(plan.Subs))
	for i, sub := range plan.Subs {
		fs := sol
		if sol.PolyFragments != 0 && sol.PolyFragments != sol.Subinstances ||
			sol.HeuristicFragments != 0 && sol.HeuristicFragments != sol.Subinstances {
			s := lr.solver()
			s.NoPreprocess = true
			var err error
			if fs, err = s.Solve(sub.Instance); err != nil {
				return nil, err
			}
		}
		switch {
		case fs.PolyFragments > 0:
			out[i] = "poly"
		case fs.HeuristicFragments > 0:
			out[i] = "heuristic"
		default:
			out[i] = "dp"
		}
	}
	return out, nil
}

// chainOp pushes one request through the layers one public call at a
// time: wire decode, prep, and per fragment the Hall precheck, the
// greedy incumbent, the routed backend and a cache lookup that hits;
// then reassembly with validation. The backends run their own precheck
// and incumbent inside, so expand = solve − check − incumbent.
func chainOp(t *tracer, op int, lr *layerReq, cache *fragcache.Cache[float64], a *acc) error {
	root := t.begin(op, 0, "op")
	defer t.end(root)
	id := t.begin(op, root, "sched.decode")
	req, err := sched.DecodeSolveRequest(bytes.NewReader(lr.body))
	a.add("sched.decode_us", us(t.end(id)))
	if err != nil {
		return err
	}
	in := req.Instance()
	id = t.begin(op, root, "prep")
	plan := lr.plan(in)
	a.add("prep.us", us(t.end(id)))
	a.add("prep.fragments_per_op", float64(len(plan.Subs)))
	parts := make([]sched.Schedule, len(plan.Subs))
	var total float64
	for i, sub := range plan.Subs {
		fr := sub.Instance
		id = t.begin(op, root, "feas.check")
		ok := feas.FeasibleOneInterval(fr)
		dFeas := t.end(id)
		a.add("feas.check_ms", ms(dFeas))
		a.add("feas.check_ms."+lr.backends[i], ms(dFeas))
		if !ok {
			return fmt.Errorf("fragment %d infeasible", i)
		}
		id = t.begin(op, root, "heur.incumbent")
		_, err := heur.Greedy(fr)
		dHeur := t.end(id)
		a.add("heur.incumbent_ms", ms(dHeur))
		if err != nil {
			return err
		}
		var cost float64
		var expanded, pruned int
		b := lr.backends[i]
		prefix := map[string]string{"dp": "core", "poly": "poly", "heuristic": "heur"}[b]
		id = t.begin(op, root, prefix+".solve")
		switch {
		case b == "poly" && lr.objective == sched.WirePower:
			var res poly.Result
			res, err = poly.SolvePower(fr, lr.alpha)
			cost, parts[i], expanded, pruned = res.Cost, res.Schedule, res.ExpandedStates, res.PrunedStates
		case b == "poly":
			var res poly.Result
			res, err = poly.SolveGaps(fr)
			cost, parts[i], expanded, pruned = res.Cost, res.Schedule, res.ExpandedStates, res.PrunedStates
		case b == "heuristic" && lr.objective == sched.WirePower:
			var res heur.Result
			res, err = heur.SolvePowerFragment(fr, lr.alpha)
			cost, parts[i] = res.Cost, res.Schedule
		case b == "heuristic":
			var res heur.Result
			res, err = heur.SolveGapsFragment(fr)
			cost, parts[i] = res.Cost, res.Schedule
		case lr.objective == sched.WirePower:
			var res core.PowerResult
			res, err = core.SolvePower(fr, lr.alpha)
			cost, parts[i], expanded, pruned = res.Power, res.Schedule, res.ExpandedStates, res.PrunedStates
		default:
			var res core.Result
			res, err = core.SolveGaps(fr)
			cost, parts[i], expanded, pruned = float64(res.Spans), res.Schedule, res.ExpandedStates, res.PrunedStates
		}
		d := t.end(id)
		if err != nil {
			return err
		}
		a.add(prefix+".solve_ms", ms(d))
		if b != "heuristic" {
			a.add(prefix+".expand_ms", ms(d-dFeas-dHeur))
			a.add(prefix+".expanded_states", float64(expanded))
			a.add(prefix+".pruned_states", float64(pruned))
		}
		total += cost

		// Lookup on a hit: the first Do stores the fragment, the timed
		// one finds it.
		tag := byte(0)
		if lr.objective == sched.WirePower {
			tag = 1
		}
		canon, _ := prep.Canonicalize(fr)
		cache.Do(prep.CanonicalKey(canon, tag, lr.alpha), func() float64 { return cost })
		id = t.begin(op, root, "fragcache.lookup")
		canon, _ = prep.Canonicalize(fr)
		_, hit := cache.Do(prep.CanonicalKey(canon, tag, lr.alpha), func() float64 { return cost })
		a.add("fragcache.lookup_us", us(t.end(id)))
		if !hit {
			return fmt.Errorf("fragment %d: stored cache entry not found", i)
		}
	}
	id = t.begin(op, root, "assemble")
	s, err := plan.Assemble(parts)
	if err == nil {
		err = s.Validate(in)
	}
	a.add("assemble.us", us(t.end(id)))
	if err != nil {
		return err
	}
	if lr.objective == sched.WireGaps {
		total = float64(s.Spans())
	}
	if total != lr.want {
		return fmt.Errorf("layer chain cost %v, reference %v", total, lr.want)
	}
	return nil
}

// chainPasses runs the layer chain over reqs: one traced pass whose
// spans and sums become the metrics, then pairs of untraced and traced
// passes until each side has run for at least a second. The overhead
// is the median over pairs of traced/untraced − 1, in percent. It
// returns the tracer of the first pass.
func chainPasses(reqs []*layerReq, a *acc) (*tracer, float64, error) {
	pass := func(on bool, a *acc) (*tracer, time.Duration, error) {
		t := &tracer{on: on, t0: time.Now()}
		cache := fragcache.New[float64](1 << 16)
		start := time.Now()
		for i, lr := range reqs {
			if err := chainOp(t, i+1, lr, cache, a); err != nil {
				return nil, 0, fmt.Errorf("layer chain op %d: %w", i, err)
			}
		}
		return t, time.Since(start), nil
	}
	first, _, err := pass(true, a)
	if err != nil {
		return nil, 0, err
	}
	a.ops = len(reqs)
	var on, off time.Duration
	var ratios []float64
	for on < time.Second || off < time.Second {
		_, dOff, err := pass(false, newAcc())
		if err != nil {
			return nil, 0, err
		}
		_, dOn, err := pass(true, newAcc())
		if err != nil {
			return nil, 0, err
		}
		on, off = on+dOn, off+dOff
		ratios = append(ratios, 100*(dOn.Seconds()/dOff.Seconds()-1))
	}
	return first, median(ratios), nil
}

// handlerTransport serves client requests in process through an
// http.Handler, timing each ServeHTTP call by endpoint and keeping a
// sample of the solve response bodies.
type handlerTransport struct {
	h      http.Handler
	mu     sync.Mutex
	serve  map[string][]float64 // us per request, by endpoint
	bodies [][]byte
}

// endpoint names the request kinds the traced runs time separately.
func endpoint(path string) string {
	switch {
	case path == "/v1/solve":
		return "solve"
	case strings.HasSuffix(path, "/delta"):
		return "delta"
	case strings.HasSuffix(path, "/solve"):
		return "session_solve"
	}
	return "other"
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t0 := time.Now()
	t.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	t.mu.Lock()
	t.serve[endpoint(req.URL.Path)] = append(t.serve[endpoint(req.URL.Path)], us(d))
	if strings.HasSuffix(req.URL.Path, "/solve") && len(t.bodies) < 256 {
		t.bodies = append(t.bodies, rec.Body.Bytes())
	}
	t.mu.Unlock()
	return rec.Result(), nil
}

// inProcess builds the daemon's handler with gapschedd's default
// configuration and a client that reaches it without a network.
func inProcess() (*service.Server, *handlerTransport, *http.Client) {
	srv := service.New(service.Config{Window: 2 * time.Millisecond, SolveTimeout: 30 * time.Second})
	tr := &handlerTransport{h: srv, serve: map[string][]float64{}}
	return srv, tr, &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

const inProcessURL = "http://in-process"

// encodePass times the JSON encoding of returned solve bodies, the way
// the service writes them.
func encodePass(bodies [][]byte, a *acc) error {
	if len(bodies) == 0 {
		return fmt.Errorf("no solve bodies to re-encode")
	}
	var t, n float64
	for _, b := range bodies {
		resp, err := sched.DecodeSolveResponse(bytes.NewReader(b))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		t0 := time.Now()
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			return err
		}
		t += us(time.Since(t0))
		n += float64(buf.Len())
	}
	a.sums["sched.encode_us"] = t / float64(len(bodies)) * float64(a.ops)
	a.sums["sched.response_bytes"] = n / float64(len(bodies)) * float64(a.ops)
	return nil
}

// scrape reads the daemon's /metrics (timed) and /v1/debug/traces and
// records the service, cache and obs metrics.
func scrape(c *http.Client, url string, r *report) error {
	t0 := time.Now()
	body, err := get(c, url+"/metrics")
	d := time.Since(t0)
	if err != nil {
		return err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		l := sc.Text()
		if strings.HasPrefix(l, "#") {
			continue
		}
		if i := strings.LastIndexByte(l, ' '); i > 0 {
			if v, err := strconv.ParseFloat(l[i+1:], 64); err == nil {
				m[l[:i]] = v
			}
		}
	}
	hits := m[`gapschedd_fragcache_events_total{event="hit"}`]
	misses := m[`gapschedd_fragcache_events_total{event="miss"}`]
	dispatches := m["gapschedd_dispatches_total"]
	solves := m[`gapschedd_requests_total{endpoint="solve"}`]
	r.set("obs.scrape_ms", ms(d), "one GET /metrics after the load phase")
	r.set("obs.metrics_bytes", float64(len(body)), "")
	r.set("fragcache.hit_ratio", hits/max(hits+misses, 1), fmt.Sprintf("hits=%g misses=%g", hits, misses))
	r.set("fragcache.evictions", m[`gapschedd_fragcache_events_total{event="eviction"}`], "")
	r.set("service.batch_size_mean", solves/max(dispatches, 1), fmt.Sprintf("solve requests=%g dispatches=%g", solves, dispatches))

	body, err = get(c, url+"/v1/debug/traces")
	if err != nil {
		return err
	}
	var tr struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		return err
	}
	var waits []float64
	for _, t := range tr.Traces {
		for _, s := range t.Spans {
			if s.Name == obs.StageQueueWait {
				waits = append(waits, us(s.Dur))
			}
		}
	}
	if len(waits) == 0 {
		return fmt.Errorf("no queue-wait spans in /v1/debug/traces")
	}
	r.set("service.queue_wait_us", mean(waits), fmt.Sprintf("mean of %d queue-wait spans of the last %d dispatches", len(waits), len(tr.Traces)))
	return nil
}

// observePass times obs.Histogram.Observe over the given latencies.
func observePass(lat []float64, r *report) {
	ds := make([]time.Duration, len(lat))
	for i, l := range lat {
		ds[i] = time.Duration(l * float64(time.Millisecond))
	}
	var h obs.Histogram
	const n = 1 << 20
	t0 := time.Now()
	for i := range n {
		h.Observe(ds[i%len(ds)])
	}
	r.set("obs.observe_ns", float64(time.Since(t0).Nanoseconds())/n, fmt.Sprintf("%d observations of the workload's latencies", n))
}

// incrDelta replaces the job in one slot of an in-process session.
type incrDelta struct {
	slot int
	job  sched.Job
}

// incrPass opens an in-process session on jobs, solves it, then applies
// each delta (remove the slot's job, add the new one) and re-solves,
// timing the delta and the resolve. want(k) is the reference cost after
// delta k.
func incrPass(s gapsched.Solver, procs int, jobs []sched.Job, deltas []incrDelta, want func(k int) float64, a *acc) error {
	sess, err := s.Open(procs)
	if err != nil {
		return err
	}
	defer sess.Close()
	ids := make([]int, len(jobs))
	for i, j := range jobs {
		if ids[i], err = sess.Add(j); err != nil {
			return err
		}
	}
	if _, err := sess.Resolve(); err != nil {
		return err
	}
	for k, d := range deltas {
		t0 := time.Now()
		if err := sess.Remove(ids[d.slot]); err != nil {
			return err
		}
		if ids[d.slot], err = sess.Add(d.job); err != nil {
			return err
		}
		t1 := time.Now()
		sol, err := sess.Resolve()
		t2 := time.Now()
		if err != nil {
			return err
		}
		if got := s.Objective.Cost(sol); got != want(k) {
			return fmt.Errorf("session delta %d: cost %v, reference %v", k, got, want(k))
		}
		a.ops++
		a.add("incr.delta_us", us(t1.Sub(t0)))
		a.add("incr.resolve_us", us(t2.Sub(t1)))
		a.add("reused", float64(sol.ReusedFragments))
		a.add("resolved", float64(sol.ResolvedFragments))
	}
	return nil
}

// readdDeltas removes and re-adds k random jobs of an instance: each
// delta dirties one fragment and leaves the cost unchanged.
func readdDeltas(rng *rand.Rand, jobs []sched.Job, k int) []incrDelta {
	out := make([]incrDelta, k)
	for i := range out {
		s := rng.Intn(len(jobs))
		out[i] = incrDelta{slot: s, job: jobs[s]}
	}
	return out
}

// layered collects the pieces every traced run reports.
type layered struct {
	chain     *acc                 // per-op layer sums of the chain
	facade    *acc                 // facade pass
	incr      *acc                 // in-process session pass
	serveHTTP map[string][]float64 // in-process ServeHTTP, us per request by endpoint
	endpoints []string             // the endpoints one op calls
	extLat    []float64            // latency over loopback, ms per op
	overhead  float64
	tr        *tracer
}

// finish records every per-layer metric of l into r and writes the
// spans file. pathLayers returns the sum of the layers on the
// workload's blocking path and the external latency it is compared
// with, both in us per op; their difference is the residual.
func (l *layered) finish(e *env, r *report, pathLayers func(l *layered, r *report) (sum, ext float64)) error {
	c, f, in := l.chain, l.facade, l.incr
	for _, k := range []string{"sched.decode_us", "prep.us", "prep.fragments_per_op", "fragcache.lookup_us",
		"feas.check_ms", "heur.incumbent_ms", "core.solve_ms", "core.expand_ms", "core.expanded_states",
		"core.pruned_states", "assemble.us", "sched.encode_us", "sched.response_bytes"} {
		r.set(k, c.mean(k), fmt.Sprintf("per op, ops=%d", c.ops))
	}
	r.set("core.prune_ratio", c.sums["core.pruned_states"]/max(c.sums["core.pruned_states"]+c.sums["core.expanded_states"], 1), "pruned / (pruned + expanded)")
	for _, k := range []string{"gapsched.alloc_bytes_per_op", "gapsched.dp_fragments", "gapsched.poly_fragments", "gapsched.heur_fragments"} {
		r.set(k, f.mean(k), fmt.Sprintf("per op, ops=%d", f.ops))
	}
	r.set("incr.delta_us", in.mean("incr.delta_us"), fmt.Sprintf("deltas=%d", in.ops))
	r.set("incr.resolve_us", in.mean("incr.resolve_us"), fmt.Sprintf("deltas=%d", in.ops))
	r.set("incr.reuse_ratio", in.sums["reused"]/max(in.sums["reused"]+in.sums["resolved"], 1), "reused / (reused + resolved) fragments")
	var serve float64
	n := 0
	for _, ep := range l.endpoints {
		serve += mean(l.serveHTTP[ep])
		n += len(l.serveHTTP[ep])
	}
	r.set("service.serve_http_us", serve, fmt.Sprintf("per op (%s), requests=%d", strings.Join(l.endpoints, "+"), n))
	ext := mean(l.extLat) * 1000
	r.set("service.net_residual_us", ext-serve, fmt.Sprintf("loopback latency %.1f us − in-process ServeHTTP %.1f us", ext, serve))
	r.set("harness.trace_overhead_pct", l.overhead, "median over pairs of traced and untraced layer-chain passes")
	sum, extOp := pathLayers(l, r)
	r.set("harness.residual_pct", 100*(extOp-sum)/extOp, fmt.Sprintf("external %.1f us, layer sum %.1f us", extOp, sum))
	for _, k := range []string{"poly.solve_ms", "poly.expand_ms", "poly.expanded_states", "poly.pruned_states"} {
		r.line("report %s=%.6g per op (not in BENCHMARK.json: poly serves no fragment of the p=2 workloads)", k, c.mean(k))
	}
	for _, b := range [][2]string{{"dp", "core"}, {"poly", "poly"}} {
		if sol := c.mean(b[1] + ".solve_ms"); sol > 0 {
			r.line("report share feas.check_ms / %s.solve_ms on %s-routed fragments = %.1f%%",
				b[1], b[0], 100*c.mean("feas.check_ms."+b[0])/sol)
		}
	}
	dir, err := e.outDir("trace")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range l.tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	r.line("report spans=%d written to %s", len(l.tr.spans), path)
	return nil
}

// traceSeconds is the length of each load phase of a traced run.
func traceSeconds(e *env) float64 { return min(e.seconds/3, 4) }

func traceServeBursty(e *env) (*report, error) {
	r := newReport()
	in, err := newBurstyInputs(e.seed, e.short)
	if err != nil {
		return nil, err
	}
	sec := traceSeconds(e)
	stream, err := in.next(int(burstyRate * sec))
	if err != nil {
		return nil, err
	}
	r.notes["fingerprint"] = in.fingerprint()
	r.line("inputs workload=serve-bursty seed=%d fingerprint=%s (traced run)", e.seed, in.fingerprint())
	l := &layered{chain: newAcc(), facade: newAcc(), incr: newAcc(), endpoints: []string{"solve"}}

	var reqs []*layerReq
	for _, s := range stream[:min(len(stream), 256)] {
		reqs = append(reqs, &layerReq{body: s.body, objective: s.objective, alpha: burstyAlpha, want: s.want})
	}
	if _, err := facadePass(reqs, l.facade); err != nil {
		return nil, err
	}
	if l.tr, l.overhead, err = chainPasses(reqs, l.chain); err != nil {
		return nil, err
	}

	// The same open loop in process, then against the daemon.
	srv, ht, ipc := inProcess()
	defer srv.Close()
	if err := coldFill(httpSolver{ipc, inProcessURL}, in, e.nproc); err != nil {
		return nil, err
	}
	ht.serve = map[string][]float64{}
	ip := openLoop(httpSolver{ipc, inProcessURL}.do, stream, burstyRate, e.nproc, nil)
	l.serveHTTP = ht.serve
	if err := encodePass(ht.bodies, l.chain); err != nil {
		return nil, err
	}
	d, err := startDaemon(e.daemon)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := newClient(e.nproc)
	defer client.CloseIdleConnections()
	if err := coldFill(httpSolver{client, d.url}, in, e.nproc); err != nil {
		return nil, err
	}
	ext := openLoop(httpSolver{client, d.url}.do, stream, burstyRate, e.nproc, nil)
	for _, o := range []openResult{ip, ext} {
		r.attempted += o.attempted
		r.failed += o.failed
		if o.failed > 0 {
			r.fail("%d requests failed; first: %v", o.failed, o.firstErr)
		}
	}
	l.extLat = ext.svc
	if err := scrape(client, d.url, r); err != nil {
		return nil, err
	}
	r.line("report harness.offered_rps=%.1f harness.generator_lag_ms mean=%.4f p99=%.4f (daemon phase)", ext.offered, ext.lagMean, ext.lagP99)

	rng := rand.New(rand.NewSource(e.seed))
	for i, p := range in.pool[:min(16, len(in.pool))] {
		for col, obj := range []string{sched.WireGaps, sched.WirePower} {
			want := in.ref[i][col]
			s := (&layerReq{objective: obj, alpha: burstyAlpha}).solver()
			if err := incrPass(s, p.Procs, p.Jobs, readdDeltas(rng, p.Jobs, 2), func(int) float64 { return want }, l.incr); err != nil {
				return nil, err
			}
		}
	}
	observePass(ext.lat, r)
	err = l.finish(e, r, func(l *layered, r *report) (float64, float64) {
		// Cache hits skip the backend: weight lookup and solve by the
		// daemon's hit ratio.
		c, hit := l.chain, r.metrics["fragcache.hit_ratio"]
		frag := hit*c.mean("fragcache.lookup_us") + (1-hit)*1000*c.mean("core.solve_ms")
		sum := c.mean("sched.decode_us") + r.metrics["service.queue_wait_us"] + c.mean("prep.us") + frag +
			c.mean("assemble.us") + c.mean("sched.encode_us")
		ext := mean(l.extLat) * 1000
		r.line("report share service.queue_wait_us / loopback latency = %.1f%% (%.1f of %.1f us)",
			100*r.metrics["service.queue_wait_us"]/ext, r.metrics["service.queue_wait_us"], ext)
		return sum, ext
	})
	return r, err
}

func traceSolveDense(e *env) (*report, error) {
	r := newReport()
	sets := denseInputs(e.seed, denseScale(e.short), densePassSets)
	ops := sets[0]
	r.notes["fingerprint"] = fingerprint(instances(sets))
	r.line("inputs workload=solve-dense seed=%d fingerprint=%s (traced run: first instance set)", e.seed, r.notes["fingerprint"])
	l := &layered{chain: newAcc(), facade: newAcc(), incr: newAcc(), endpoints: []string{"solve"}}
	var reqs []*layerReq
	var solveReqs []*solveReq
	for _, op := range ops {
		obj := sched.WireGaps
		if op.solver.Objective == gapsched.ObjectivePower {
			obj = sched.WirePower
		}
		body := mustJSON(wireRequest(op.in, obj, denseAlpha, sched.WireModeAuto))
		reqs = append(reqs, &layerReq{body: body, objective: obj, alpha: denseAlpha, mode: gapsched.ModeAuto, want: math.NaN()})
		solveReqs = append(solveReqs, &solveReq{body: body, objective: obj, in: op.in})
	}
	walls, err := facadePass(reqs, l.facade)
	if err != nil {
		return nil, err
	}
	for i, lr := range reqs {
		solveReqs[i].want = lr.want // the facade's answers check the served ones
	}
	if l.tr, l.overhead, err = chainPasses(reqs, l.chain); err != nil {
		return nil, err
	}

	srv, ht, ipc := inProcess()
	defer srv.Close()
	if err := closedLoop(solveReqs, 1, httpSolver{ipc, inProcessURL}.do); err != nil {
		return nil, err
	}
	l.serveHTTP = ht.serve
	if err := encodePass(ht.bodies, l.chain); err != nil {
		return nil, err
	}
	d, err := startDaemon(e.daemon)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := newClient(1)
	defer client.CloseIdleConnections()
	h := httpSolver{client, d.url}
	for _, s := range solveReqs {
		t0 := time.Now()
		err := h.do(s)
		l.extLat = append(l.extLat, ms(time.Since(t0)))
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("daemon: %v", err)
		}
	}
	if err := scrape(client, d.url, r); err != nil {
		return nil, err
	}

	// Sessions on the smallest p=2 lane: each delta re-solves its one fragment.
	for _, op := range ops {
		if op.lane.p == 2 {
			s := op.solver
			sol, err := s.Solve(op.in)
			if err != nil {
				return nil, err
			}
			want := s.Objective.Cost(sol)
			if err := incrPass(s, op.in.Procs, op.in.Jobs, readdDeltas(rand.New(rand.NewSource(e.seed)), op.in.Jobs, 1),
				func(int) float64 { return want }, l.incr); err != nil {
				return nil, err
			}
			break
		}
	}
	observePass(walls, r)
	r.line("report share feas.check_ms / facade wall = %.1f%% (%.3f of %.3f ms per op)",
		100*l.chain.mean("feas.check_ms")/mean(walls), l.chain.mean("feas.check_ms"), mean(walls))
	err = l.finish(e, r, func(l *layered, r *report) (float64, float64) {
		// This workload's external latency is the facade call.
		c := l.chain
		return c.mean("prep.us") + 1000*(c.mean("core.solve_ms")+c.mean("poly.solve_ms")) + c.mean("assemble.us"),
			mean(walls) * 1000
	})
	return r, err
}

func traceSessionChurn(e *env) (*report, error) {
	r := newReport()
	cls, _, _ := churnInputs(e)
	r.notes["fingerprint"] = fingerprint(cls)
	r.line("inputs workload=session-churn seed=%d fingerprint=%s (traced run)", e.seed, fingerprint(cls))
	l := &layered{chain: newAcc(), facade: newAcc(), incr: newAcc(), endpoints: []string{"delta", "session_solve"}}
	initial := make([]float64, len(cls))
	for k, cl := range cls {
		_, init, err := churnRefs(cl, 0)
		if err != nil {
			return nil, err
		}
		initial[k] = init
	}

	// The layer chain and facade run on the per-burst job sets a delta
	// re-solves, as /v1/solve requests (these also carry queue waits).
	var reqs []*layerReq
	var solveReqs []*solveReq
	for _, cl := range cls {
		for _, b := range cl.bursts {
			in := sched.Instance{Jobs: b, Procs: churnProcs}
			want, err := referenceCost(in, cl.objective, cl.alpha)
			if err != nil {
				return nil, err
			}
			body := mustJSON(wireRequest(in, cl.objective, cl.alpha, ""))
			reqs = append(reqs, &layerReq{body: body, objective: cl.objective, alpha: cl.alpha, want: want})
			solveReqs = append(solveReqs, &solveReq{body: body, objective: cl.objective, in: in, want: want})
		}
	}
	if _, err := facadePass(reqs, l.facade); err != nil {
		return nil, err
	}
	var err error
	if l.tr, l.overhead, err = chainPasses(reqs, l.chain); err != nil {
		return nil, err
	}
	// Wire decode on this workload is the delta body.
	var dec float64
	nDec := 0
	for _, cl := range cls {
		for _, op := range cl.ops[:min(len(cl.ops), 256)] {
			body := mustJSON(sched.SessionDeltaRequest{Add: []sched.Job{op.job}, Remove: []int{op.s}})
			t0 := time.Now()
			if _, err := sched.DecodeSessionDeltaRequest(bytes.NewReader(body)); err != nil {
				return nil, err
			}
			dec += us(time.Since(t0))
			nDec++
		}
	}
	l.chain.sums["sched.decode_us"] = dec / float64(nDec) * float64(l.chain.ops)

	sec := traceSeconds(e)
	phase := func(c *http.Client, url string) (churnResult, error) {
		sess := make([]*churnSession, len(cls))
		for k, cl := range cls {
			var err error
			if sess[k], err = openSession(c, url, cl, initial[k]); err != nil {
				return churnResult{}, err
			}
		}
		ph := churnPhase(c, url, cls, sess, time.Now(), sec, 0, nil)
		ph.count(r)
		ph.verify(r, cls)
		if err := closedLoop(solveReqs, e.nproc, httpSolver{c, url}.do); err != nil {
			r.fail("/v1/solve of the bursts: %v", err)
		}
		return ph, nil
	}
	srv, ht, ipc := inProcess()
	defer srv.Close()
	if _, err := phase(ipc, inProcessURL); err != nil {
		return nil, err
	}
	l.serveHTTP = ht.serve
	if err := encodePass(ht.bodies, l.chain); err != nil {
		return nil, err
	}
	d, err := startDaemon(e.daemon)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := newClient(e.nproc)
	defer client.CloseIdleConnections()
	ph, err := phase(client, d.url)
	if err != nil {
		return nil, err
	}
	for k := range ph.lat {
		l.extLat = append(l.extLat, ph.lat[k]...)
	}
	if err := scrape(client, d.url, r); err != nil {
		return nil, err
	}

	for k, cl := range cls {
		n := min(len(cl.ops), 256)
		refs, _, err := churnRefs(cl, n)
		if err != nil {
			return nil, err
		}
		var deltas []incrDelta
		for _, op := range cl.ops[:n] {
			deltas = append(deltas, incrDelta{slot: op.b*len(cl.bursts[0]) + op.s, job: op.job})
		}
		s := (&layerReq{objective: cl.objective, alpha: cl.alpha}).solver()
		if err := incrPass(s, churnProcs, cl.allJobs(cl.bursts), deltas, func(i int) float64 { return refs[i] }, l.incr); err != nil {
			return nil, fmt.Errorf("client %d: %w", k, err)
		}
	}
	observePass(l.extLat, r)
	err = l.finish(e, r, func(l *layered, r *report) (float64, float64) {
		return l.chain.mean("sched.decode_us") + l.incr.mean("incr.delta_us") + l.incr.mean("incr.resolve_us") +
				l.chain.mean("sched.encode_us"),
			mean(l.extLat) * 1000
	})
	return r, err
}
