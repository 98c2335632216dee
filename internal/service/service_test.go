package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	gapsched "repro"
	"repro/internal/sched"
	"repro/internal/workload"
)

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// trySolve is the goroutine-safe counterpart of postJSON+decodeSolve:
// it returns errors instead of calling into testing.T, which must not
// be failed from spawned goroutines.
func trySolve(url string, req sched.SolveRequest) (sched.SolveResponse, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		return sched.SolveResponse{}, err
	}
	httpResp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return sched.SolveResponse{}, err
	}
	defer httpResp.Body.Close()
	return sched.DecodeSolveResponse(httpResp.Body)
}

func decodeSolve(t *testing.T, resp *http.Response) sched.SolveResponse {
	t.Helper()
	defer resp.Body.Close()
	out, err := sched.DecodeSolveResponse(resp.Body)
	if err != nil {
		t.Fatalf("undecodable solve response: %v", err)
	}
	return out
}

// testPool builds distinct feasible instances that prep into several
// fragments, so coalesced batches exercise the fragment queue.
func testPool(n int) []sched.SolveRequest {
	rng := rand.New(rand.NewSource(5))
	reqs := make([]sched.SolveRequest, n)
	for i := range reqs {
		in := workload.FeasibleOneInterval(rng, 8, 2, 40, 4)
		obj := sched.WireGaps
		// Gaps requests carry varying alphas: the objective ignores
		// them, so they must all still coalesce into one group.
		alpha := float64(i % 3)
		if i%2 == 1 {
			obj, alpha = sched.WirePower, 2.5
		}
		reqs[i] = sched.SolveRequest{Objective: obj, Alpha: alpha, Procs: in.Procs, Jobs: in.Jobs}
	}
	return reqs
}

func directSolve(t *testing.T, req sched.SolveRequest) gapsched.Solution {
	t.Helper()
	s := gapsched.Solver{Alpha: req.Alpha}
	if req.Objective == sched.WirePower {
		s.Objective = gapsched.ObjectivePower
	}
	sol, err := s.Solve(req.Instance())
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	return sol
}

// End-to-end coalescing test: concurrent /v1/solve requests are forced
// into exactly one dispatch per solver configuration by a size trigger
// (window far longer than the test, MaxBatch = requests per
// configuration), and every response must be bit-identical to a direct
// Solve of the same instance.
func TestSolveCoalescedMatchesDirect(t *testing.T) {
	const perKey = 12
	pool := testPool(2 * perKey) // alternates gaps / power, perKey each
	srv := New(Config{Window: time.Hour, MaxBatch: perKey, SolveTimeout: time.Minute})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	responses := make([]sched.SolveResponse, len(pool))
	errs := make([]error, len(pool))
	for i, req := range pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i], errs[i] = trySolve(ts.URL+"/v1/solve", req)
		}()
	}
	wg.Wait()

	for i, got := range responses {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got.Err != nil {
			t.Fatalf("request %d failed: %v", i, got.Err)
		}
		want := directSolve(t, pool[i])
		if got.Spans != want.Spans || got.Gaps != want.Gaps || got.Power != want.Power {
			t.Errorf("request %d: served (spans=%d gaps=%d power=%v) != direct (spans=%d gaps=%d power=%v)",
				i, got.Spans, got.Gaps, got.Power, want.Spans, want.Gaps, want.Power)
		}
		if got.Schedule == nil {
			t.Fatalf("request %d: no schedule", i)
		}
		if err := got.Schedule.Validate(pool[i].Instance()); err != nil {
			t.Errorf("request %d: served schedule invalid: %v", i, err)
		}
	}

	st := srv.Stats()
	if st.SolveRequests != int64(len(pool)) {
		t.Errorf("SolveRequests = %d, want %d", st.SolveRequests, len(pool))
	}
	// Every handler blocks until its window dispatches and the window
	// only dispatches at MaxBatch (the timer is an hour out), so the
	// coalescer must have folded the load into one dispatch per
	// configuration.
	if st.Dispatches != 2 {
		t.Errorf("Dispatches = %d, want 2 (one per solver configuration)", st.Dispatches)
	}
	if st.Coalesced != int64(len(pool)) {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, len(pool))
	}
	if st.Cache.Misses == 0 {
		t.Errorf("shared cache saw no misses: %+v", st.Cache)
	}
}

// Uncoalesced servers (zero window) must serve the same answers.
func TestSolveUncoalescedMatchesDirect(t *testing.T) {
	pool := testPool(6)
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i, req := range pool {
		resp := postJSON(t, ts.URL+"/v1/solve", req)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// The session-only fragment counts are omitempty and zero on a
		// one-shot solve, so its body never names them.
		for _, field := range []string{`"resolvedFragments"`, `"reusedFragments"`} {
			if bytes.Contains(body, []byte(field)) {
				t.Errorf("request %d: one-shot body carries %s: %s", i, field, body)
			}
		}
		got, err := sched.DecodeSolveResponse(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: undecodable solve response: %v", i, err)
		}
		if got.Err != nil {
			t.Fatalf("request %d failed: %v", i, got.Err)
		}
		want := directSolve(t, req)
		if got.Spans != want.Spans || got.Power != want.Power {
			t.Errorf("request %d: served != direct", i)
		}
	}
	if st := srv.Stats(); st.Coalesced != 0 {
		t.Errorf("uncoalesced server reported %d coalesced requests", st.Coalesced)
	}
}

func TestBatchEndpoint(t *testing.T) {
	pool := testPool(4)
	breq := sched.BatchRequest{Requests: []sched.SolveRequest{
		pool[0],
		{Jobs: []sched.Job{{Release: 0, Deadline: 0}, {Release: 0, Deadline: 0}}}, // infeasible
		{Objective: "speed", Jobs: []sched.Job{}},                                 // config error
		pool[1],
	}}
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	httpResp := postJSON(t, ts.URL+"/v1/batch", breq)
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", httpResp.StatusCode)
	}
	bresp, err := sched.DecodeBatchResponse(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(bresp.Responses) != 4 {
		t.Fatalf("got %d responses, want 4", len(bresp.Responses))
	}
	for _, i := range []int{0, 3} {
		got, want := bresp.Responses[i], directSolve(t, breq.Requests[i])
		if got.Err != nil || got.Spans != want.Spans || got.Power != want.Power {
			t.Errorf("batch element %d: served %+v != direct %+v", i, got, want)
		}
	}
	if e := bresp.Responses[1].Err; e == nil || e.Code != sched.ErrCodeInfeasible {
		t.Errorf("element 1: got %+v, want infeasible", bresp.Responses[1])
	}
	if e := bresp.Responses[2].Err; e == nil || e.Code != sched.ErrCodeBadRequest {
		t.Errorf("element 2: got %+v, want bad_request", bresp.Responses[2])
	}
}

// A malformed /v1/batch envelope must come back in the wire contract's
// own shape: a BatchResponse with an envelope-level error that the
// strict decoder accepts.
func TestBatchEnvelopeErrorIsDecodable(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"requests": nope`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	bresp, err := sched.DecodeBatchResponse(resp.Body)
	if err != nil {
		t.Fatalf("envelope error not decodable as BatchResponse: %v", err)
	}
	if bresp.Err == nil || bresp.Err.Code != sched.ErrCodeBadRequest || len(bresp.Responses) != 0 {
		t.Fatalf("unexpected envelope payload: %+v", bresp)
	}
}

func TestSolveErrorPayloads(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"jobs": not json`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if out := decodeSolve(t, resp); out.Err == nil || out.Err.Code != sched.ErrCodeBadRequest {
		t.Errorf("malformed body: payload %+v", out)
	}

	infeasible := sched.SolveRequest{Jobs: []sched.Job{{Release: 2, Deadline: 2}, {Release: 2, Deadline: 2}}}
	resp = postJSON(t, ts.URL+"/v1/solve", infeasible)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible: status %d, want 422", resp.StatusCode)
	}
	if out := decodeSolve(t, resp); out.Err == nil || out.Err.Code != sched.ErrCodeInfeasible {
		t.Errorf("infeasible: payload %+v", out)
	}

	st := srv.Stats()
	if st.Errors[sched.ErrCodeBadRequest] != 1 || st.Errors[sched.ErrCodeInfeasible] != 1 {
		t.Errorf("error counters: %+v", st.Errors)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", testPool(1)[0]))

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	for _, series := range []string{
		`gapschedd_requests_total{endpoint="solve"} 1`,
		"gapschedd_dispatches_total 1",
		"gapschedd_inflight_requests",
		`gapschedd_fragcache_events_total{event="miss"}`,
		"gapschedd_fragcache_entries",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics output missing %q:\n%s", series, body)
		}
	}
}

// Graceful shutdown must answer requests already buffered in an open
// window and reject requests arriving afterwards.
func TestCloseFlushesPendingWindow(t *testing.T) {
	pool := testPool(2)
	srv := New(Config{Window: time.Hour, MaxBatch: 100})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type solveResult struct {
		resp sched.SolveResponse
		err  error
	}
	got := make(chan solveResult, 1)
	go func() {
		resp, err := trySolve(ts.URL+"/v1/solve", pool[0])
		got <- solveResult{resp, err}
	}()
	// Wait until the request is actually buffered in an open window —
	// the request counter bumps before enqueue, so polling it would
	// race Close against the handler's enqueue call.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Buffered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached a coalescing window")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()

	select {
	case out := <-got:
		if out.err != nil {
			t.Fatalf("buffered request errored on shutdown: %v", out.err)
		}
		if out.resp.Err != nil {
			t.Fatalf("buffered request failed on shutdown: %v", out.resp.Err)
		}
		if want := directSolve(t, pool[0]); out.resp.Spans != want.Spans {
			t.Errorf("flushed answer wrong: %d != %d", out.resp.Spans, want.Spans)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("buffered request never answered after Close")
	}

	resp := postJSON(t, ts.URL+"/v1/solve", pool[1])
	out := decodeSolve(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || out.Err == nil || out.Err.Code != sched.ErrCodeUnavailable {
		t.Errorf("solve after Close: status %d payload %+v, want 503 unavailable", resp.StatusCode, out)
	}

	// Client-built batches share the shutdown lifecycle: envelopes
	// arriving after Close are rejected, in the envelope's own shape.
	bresp := postJSON(t, ts.URL+"/v1/batch", sched.BatchRequest{Requests: []sched.SolveRequest{pool[1]}})
	defer bresp.Body.Close()
	benv, err := sched.DecodeBatchResponse(bresp.Body)
	if bresp.StatusCode != http.StatusServiceUnavailable || err != nil || benv.Err == nil || benv.Err.Code != sched.ErrCodeUnavailable {
		t.Errorf("batch after Close: status %d payload %+v err %v, want 503 unavailable", bresp.StatusCode, benv, err)
	}
}

// TestSolveHugeProcs: a request whose processor count dwarfs its job
// count used to kill the daemon with an out-of-memory fatal error. It
// must be served, in exact and auto mode, with the optimum of the same
// jobs on two processors.
func TestSolveHugeProcs(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jobs := []sched.Job{{Release: 0, Deadline: 3}, {Release: 0, Deadline: 3}}
	for _, mode := range []string{sched.WireModeExact, sched.WireModeAuto} {
		want := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", sched.SolveRequest{Procs: 2, Mode: mode, Jobs: jobs}))
		got := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", sched.SolveRequest{Procs: 1 << 40, Mode: mode, Jobs: jobs}))
		if want.Err != nil || got.Err != nil {
			t.Fatalf("%s: solve failed: p=2 %v, p=2^40 %v", mode, want.Err, got.Err)
		}
		if got.Spans != want.Spans {
			t.Fatalf("%s: %d spans on p=2^40, want %d (p=2)", mode, got.Spans, want.Spans)
		}
	}
}

// TestCoordinateBoundIsBadRequest: jobs outside the coordinate bound
// sched.MaxCoord used to overflow into an "empty window" rejection or
// a wrong infeasible verdict. Every endpoint must answer them with a
// 400 bad_request whose message names the bound — a solve, a batch
// element, a session create, a delta, and a session solve whose
// chained windows outgrow the bound only once fragments are formed.
func TestCoordinateBoundIsBadRequest(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const bound = "coordinate bound"
	repros := [][]sched.Job{
		{{Release: math.MinInt64 + 1, Deadline: math.MaxInt64 - 2}},
		{{Release: math.MinInt + 1, Deadline: math.MaxInt - 1}, {Release: math.MinInt + 1, Deadline: math.MinInt + 1}},
	}
	for i, jobs := range repros {
		for _, mode := range []string{sched.WireModeExact, sched.WireModeAuto, sched.WireModeHeuristic} {
			resp := postJSON(t, ts.URL+"/v1/solve", sched.SolveRequest{Mode: mode, Jobs: jobs})
			out := decodeSolve(t, resp)
			if resp.StatusCode != http.StatusBadRequest || out.Err == nil ||
				out.Err.Code != sched.ErrCodeBadRequest || !strings.Contains(out.Err.Message, bound) {
				t.Fatalf("repro %d %s: status %d payload %+v, want 400 naming the bound", i, mode, resp.StatusCode, out.Err)
			}
		}
		resp := postJSON(t, ts.URL+"/v1/batch", sched.BatchRequest{Requests: []sched.SolveRequest{{Jobs: jobs}}})
		var batch sched.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(batch.Responses) != 1 || batch.Responses[0].Err == nil ||
			batch.Responses[0].Err.Code != sched.ErrCodeBadRequest || !strings.Contains(batch.Responses[0].Err.Message, bound) {
			t.Fatalf("repro %d batch: %+v, want a bad_request element naming the bound", i, batch)
		}
		code, out := sessionDo(t, "POST", ts.URL+"/v1/session", sched.SessionCreateRequest{Jobs: jobs})
		if code != http.StatusBadRequest || out.Err == nil || !strings.Contains(out.Err.Message, bound) {
			t.Fatalf("repro %d session create: status %d payload %+v", i, code, out.Err)
		}
	}

	_, out := sessionDo(t, "POST", ts.URL+"/v1/session", sched.SessionCreateRequest{})
	code, dout := sessionDo(t, "POST", ts.URL+"/v1/session/"+out.Session+"/delta",
		sched.SessionDeltaRequest{Add: repros[0]})
	if code != http.StatusBadRequest || dout.Err == nil || !strings.Contains(dout.Err.Message, bound) {
		t.Fatalf("delta: status %d payload %+v", code, dout.Err)
	}
	// Each window is within the bound, but the two chain into one
	// fragment spanning 2·MaxCoord.
	_, out = sessionDo(t, "POST", ts.URL+"/v1/session", sched.SessionCreateRequest{Jobs: []sched.Job{
		{Release: -sched.MaxCoord, Deadline: 0}, {Release: 0, Deadline: sched.MaxCoord}}})
	code, sout := sessionSolve(t, ts.URL, out.Session)
	if code != http.StatusBadRequest || sout.Err == nil || sout.Err.Code != sched.ErrCodeBadRequest ||
		!strings.Contains(sout.Err.Message, bound) {
		t.Fatalf("chained session solve: status %d payload %+v", code, sout.Err)
	}
}
