// Package service is the batched scheduling daemon behind
// cmd/gapschedd: an HTTP/JSON front end to the gapsched solving
// pipeline whose core is a request coalescer. Concurrent /v1/solve
// requests are buffered into short time/size windows and dispatched as
// one fragment-level SolveBatch over a persistent shared
// FragmentCache, so independent clients with similar workloads hit
// cached canonical fragments instead of re-solving; responses are
// demultiplexed back per request and are bit-identical to direct
// Solve calls. Endpoints:
//
//	POST   /v1/solve             one sched.SolveRequest  → sched.SolveResponse
//	POST   /v1/batch             one sched.BatchRequest  → sched.BatchResponse
//	POST   /v1/session           open an incremental session (session.go)
//	POST   /v1/session/{id}/delta  apply job add/remove deltas
//	POST   /v1/session/{id}/solve  incremental resolve (dirty fragments only)
//	DELETE /v1/session/{id}      close a session
//	GET    /healthz              liveness probe
//	GET    /metrics              Prometheus text exposition of the counters
//
// The wire format is defined in internal/sched (wire.go); DESIGN.md §2
// describes where this layer sits in the pipeline.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	gapsched "repro"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Defaults applied by New for zero Config fields.
const (
	// DefaultMaxBatch bounds how many requests one coalescing window
	// may accumulate before it dispatches early.
	DefaultMaxBatch = 64
	// DefaultCacheCapacity sizes the shared fragment cache.
	DefaultCacheCapacity = 1 << 16
	// DefaultSessionTTL is how long an idle incremental session lives
	// before eviction reclaims it.
	DefaultSessionTTL = 5 * time.Minute
	// DefaultMaxSessions bounds the session registry.
	DefaultMaxSessions = 1 << 12
	// DefaultSLOLatencyP99 is the default sliding-p99 latency objective.
	DefaultSLOLatencyP99 = time.Second
	// DefaultSLOErrorRate is the default windowed error-rate objective
	// (fraction of requests answered 5xx).
	DefaultSLOErrorRate = 0.01
	// DefaultSLOWindow is the trailing window SLO verdicts cover.
	DefaultSLOWindow = time.Minute
	// maxBodyBytes bounds a request body; a million-job instance is
	// ~30 MB and far beyond what the exact DP should be fed over HTTP.
	maxBodyBytes = 8 << 20
)

// Config tunes a Server. The zero value serves uncoalesced requests
// (no buffering window) through a default-capacity shared cache.
type Config struct {
	// Window is the coalescing window: the first /v1/solve request of
	// a solver configuration opens a window, requests arriving within
	// Window join it, and the whole window dispatches as one
	// SolveBatch. Zero or negative disables coalescing — every request
	// dispatches immediately.
	Window time.Duration
	// MaxBatch dispatches a window early once it holds this many
	// requests (0 = DefaultMaxBatch; 1 effectively disables
	// coalescing).
	MaxBatch int
	// CacheCapacity sizes the persistent shared FragmentCache
	// (0 = DefaultCacheCapacity; negative disables caching).
	CacheCapacity int
	// Workers bounds each dispatch's solver pool (0 = GOMAXPROCS).
	Workers int
	// SolveTimeout is the per-dispatch solve deadline. A dispatch
	// that serves a single request additionally honors that client's
	// request context; dispatches shared by several coalesced
	// requests honor only this timeout. Zero means no deadline.
	SolveTimeout time.Duration
	// SessionTTL is how long an idle /v1/session session survives
	// before it is evicted (0 = DefaultSessionTTL; negative disables
	// expiry). The clock resets on every request that addresses the
	// session.
	SessionTTL time.Duration
	// MaxSessions bounds how many sessions may be open at once
	// (0 = DefaultMaxSessions; negative means unlimited). Creates
	// beyond the bound are rejected as unavailable.
	MaxSessions int
	// Logger receives the daemon's structured logs: per-request lines
	// and slow-solve warnings. Nil discards them.
	Logger *slog.Logger
	// TraceRing sizes the ring of recent solve traces served by
	// /v1/debug/traces (0 = obs.DefaultRingSize; negative disables
	// trace retention — the endpoint then serves an empty list).
	TraceRing int
	// SlowSolve, when positive, logs a warning with the full per-stage
	// breakdown for every dispatch whose solve ran at least this long.
	SlowSolve time.Duration
	// SLOLatencyP99 is the sliding-p99 latency objective evaluated per
	// endpoint over SLOWindow (0 = DefaultSLOLatencyP99; negative
	// disables the latency objective).
	SLOLatencyP99 time.Duration
	// SLOErrorRate is the windowed error-rate objective: the tolerated
	// fraction of requests answered 5xx (0 = DefaultSLOErrorRate;
	// negative disables the error objective and budget accounting).
	SLOErrorRate float64
	// SLOWindow is the trailing window SLO verdicts cover
	// (0 or negative = DefaultSLOWindow).
	SLOWindow time.Duration
}

// Server is the daemon: an http.Handler plus the shared cache, the
// coalescer, and the observability sinks (latency histograms, the
// trace ring, the structured logger). Construct with New; close with
// Close.
type Server struct {
	cfg      Config
	cache    *gapsched.FragmentCache
	co       *coalescer
	sessions *sessionRegistry
	met      metrics
	po       *pipelineObs
	slo      *sloTracker
	reqID    atomic.Uint64
	mux      *http.ServeMux
}

// New builds a Server from cfg, applying the documented defaults.
func New(cfg Config) *Server {
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = DefaultCacheCapacity
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = DefaultSessionTTL
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.SLOLatencyP99 == 0 {
		cfg.SLOLatencyP99 = DefaultSLOLatencyP99
	}
	if cfg.SLOErrorRate == 0 {
		cfg.SLOErrorRate = DefaultSLOErrorRate
	}
	if cfg.SLOWindow <= 0 {
		cfg.SLOWindow = DefaultSLOWindow
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.slo = newSLOTracker(cfg.SLOLatencyP99, cfg.SLOErrorRate, cfg.SLOWindow, cfg.Logger)
	s.met.start = time.Now()
	if cfg.CacheCapacity > 0 {
		s.cache = gapsched.NewFragmentCache(cfg.CacheCapacity)
	}
	s.po = &pipelineObs{met: &s.met, logger: cfg.Logger, slow: cfg.SlowSolve,
		slowLim: newLogLimiter(slowLogRate, slowLogBurst)}
	if cfg.TraceRing >= 0 {
		s.po.rec = obs.NewRecorder(cfg.TraceRing)
	}
	s.co = newCoalescer(cfg.Window, cfg.MaxBatch, cfg.SolveTimeout, &s.met, s.po, s.solverFor)
	s.sessions = newSessionRegistry(cfg.SessionTTL, cfg.MaxSessions, &s.met)
	s.mux.HandleFunc("POST /v1/solve", s.instrument("solve", &s.met.reqSolve, s.handleSolve))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", &s.met.reqBatch, s.handleBatch))
	s.mux.HandleFunc("POST /v1/session", s.instrument("session_create", &s.met.reqSessionCreate, s.handleSessionCreate))
	s.mux.HandleFunc("POST /v1/session/{id}/delta", s.instrument("session_delta", &s.met.reqSessionDelta, s.handleSessionDelta))
	s.mux.HandleFunc("POST /v1/session/{id}/solve", s.instrument("session_solve", &s.met.reqSessionSolve, s.handleSessionSolve))
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.instrument("session_delete", &s.met.reqSessionDelete, s.handleSessionDelete))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/debug/slo", s.handleSLO)
	return s
}

// ridKey keys the per-request id in a request context, so the dispatch
// trace of an uncoalesced solve can carry the id of the request it
// served.
type ridKey struct{}

// statusWriter captures the response status for the request log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// instrument wraps one endpoint handler with the request-scoped
// observability: a fresh request id threaded through the context, the
// endpoint's end-to-end latency histogram, and one structured log line
// per request (id, endpoint, status, duration).
func (s *Server) instrument(endpoint string, hist *obs.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := s.reqID.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(context.WithValue(r.Context(), ridKey{}, rid)))
		d := time.Since(start)
		hist.Observe(d)
		s.slo.observe(endpoint, d, sw.status)
		s.po.logger.Info("request",
			slog.Uint64("id", rid),
			slog.String("endpoint", endpoint),
			slog.Int("status", sw.status),
			slog.Duration("duration", d))
	}
}

// solverFor binds one solve configuration to the shared pieces.
func (s *Server) solverFor(key solveKey) gapsched.Solver {
	return gapsched.Solver{
		Objective:   key.objective,
		Alpha:       key.alpha,
		Mode:        key.mode,
		StateBudget: key.budget,
		Workers:     s.cfg.Workers,
		Cache:       s.cache,
	}
}

// Close gracefully shuts the solving side down: new requests are
// rejected with ErrShuttingDown, every open coalescing window is
// dispatched so buffered clients still get their answers, all
// in-flight dispatches are waited for, and every open incremental
// session is closed (waiting out in-flight session operations). The
// HTTP listener's lifecycle (http.Server.Shutdown) is the caller's
// concern.
func (s *Server) Close() {
	s.co.close()
	s.sessions.close()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	s.mux.ServeHTTP(w, r)
}

// Stats is a point-in-time snapshot of the Server's counters, exposed
// for tests and the experiment harness; /metrics renders the same
// numbers.
type Stats struct {
	SolveRequests, BatchRequests, BatchItems int64
	Dispatches, Coalesced                    int64
	// Session counters: requests to any /v1/session endpoint, deltas
	// applied, incremental solves served, and the registry's lifecycle
	// tallies.
	SessionRequests, SessionDeltas, SessionSolves    int64
	SessionsCreated, SessionsClosed, SessionsExpired int64
	// SessionsOpen is the number of sessions currently live.
	SessionsOpen int
	// ModeSolves counts successfully served solutions by solver mode
	// ("exact", "heuristic", "auto"), across /v1/solve, /v1/batch
	// elements, and session resolves.
	ModeSolves map[string]int64
	// QualityGap is the summed certified optimality gap (cost −
	// lowerBound) over every served solution; exact solves contribute 0.
	QualityGap float64
	// OnlineSolves counts solves served for online (commit-only)
	// sessions; OnlineRatio is the last measured competitive ratio.
	OnlineSolves int64
	OnlineRatio  float64
	// Buffered is the number of requests currently waiting in open
	// coalescing windows.
	Buffered     int
	Errors       map[string]int64
	Cache        gapsched.CacheStats
	CacheEntries int
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		SolveRequests:   s.met.solveRequests.Load(),
		BatchRequests:   s.met.batchRequests.Load(),
		BatchItems:      s.met.batchItems.Load(),
		Dispatches:      s.met.dispatches.Load(),
		Coalesced:       s.met.coalesced.Load(),
		SessionRequests: s.met.sessionRequests.Load(),
		SessionDeltas:   s.met.sessionDeltas.Load(),
		SessionSolves:   s.met.sessionSolves.Load(),
		SessionsCreated: s.met.sessionsCreated.Load(),
		SessionsClosed:  s.met.sessionsClosed.Load(),
		SessionsExpired: s.met.sessionsExpired.Load(),
		SessionsOpen:    s.sessions.open(),
		ModeSolves: map[string]int64{
			sched.WireModeExact:     s.met.modeExact.Load(),
			sched.WireModeHeuristic: s.met.modeHeuristic.Load(),
			sched.WireModeAuto:      s.met.modeAuto.Load(),
		},
		QualityGap:   s.met.qualityGapTotal(),
		OnlineSolves: s.met.onlineSolves.Load(),
		OnlineRatio:  s.met.onlineRatioValue(),
		Buffered:     s.co.buffered(),
		Errors: map[string]int64{
			sched.ErrCodeBadRequest:  s.met.errBadRequest.Load(),
			sched.ErrCodeInfeasible:  s.met.errInfeasible.Load(),
			sched.ErrCodeCanceled:    s.met.errCanceled.Load(),
			sched.ErrCodeUnavailable: s.met.errUnavailable.Load(),
			sched.ErrCodeNotFound:    s.met.errNotFound.Load(),
			sched.ErrCodeInternal:    s.met.errInternal.Load(),
		},
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
		st.CacheEntries = st.Cache.Entries
	}
	return st
}

// keyFor maps a validated wire request to its solver configuration.
// Fields an objective or mode ignores are dropped from the key — gaps
// requests coalesce regardless of any alpha they happen to carry, and
// only auto-mode requests keep their stateBudget.
func keyFor(req sched.SolveRequest) solveKey {
	key := solveKey{objective: gapsched.ObjectiveGaps}
	if req.Objective == sched.WirePower {
		key.objective, key.alpha = gapsched.ObjectivePower, req.Alpha
	}
	// Validation accepted the request, so the mode name parses.
	key.mode, _ = gapsched.ParseMode(req.Mode)
	if key.mode == gapsched.ModeAuto {
		switch key.budget = req.StateBudget; {
		case key.budget == 0:
			// The solver resolves 0 to the default budget; normalizing
			// here lets explicit-default and zero requests coalesce.
			key.budget = gapsched.DefaultStateBudget
		case key.budget < 0:
			// All negative budgets mean "every fragment heuristic";
			// collapse them onto one sentinel for the same reason.
			key.budget = -1
		}
	}
	return key
}

// wireOutcome converts one solve outcome to its wire form — the one
// Solution→wire mapping for one-shot, batch and session responses.
func wireOutcome(out outcome) sched.SolveResponse {
	if out.err != nil {
		return sched.SolveResponse{Err: wireError(out.err)}
	}
	sol := out.sol
	return sched.SolveResponse{
		Spans:              sol.Spans,
		Gaps:               sol.Gaps,
		Power:              sol.Power,
		Schedule:           &sol.Schedule,
		States:             sol.States,
		Subinstances:       sol.Subinstances,
		CacheHits:          sol.CacheHits,
		ResolvedFragments:  sol.ResolvedFragments,
		ReusedFragments:    sol.ReusedFragments,
		PrunedStates:       sol.PrunedStates,
		ExpandedStates:     sol.ExpandedStates,
		Mode:               sol.Mode.String(),
		LowerBound:         sol.LowerBound,
		HeuristicFragments: sol.HeuristicFragments,
		CompetitiveRatio:   sol.CompetitiveRatio,
		CommittedJobs:      sol.CommittedJobs,
		CommittedCost:      sol.CommittedCost,
		Timings: &sched.WireTimings{
			PrepNs:      sol.Timings.Prep.Nanoseconds(),
			CacheNs:     sol.Timings.Cache.Nanoseconds(),
			SolveDPNs:   sol.Timings.SolveDP.Nanoseconds(),
			SolveHeurNs: sol.Timings.SolveHeur.Nanoseconds(),
			AssembleNs:  sol.Timings.Assemble.Nanoseconds(),
		},
	}
}

// costOf extracts the objective's cost from a solution, for the
// quality-gap accounting.
func costOf(key solveKey, sol gapsched.Solution) float64 {
	return key.objective.Cost(sol)
}

// wireError classifies a solver-side error. Requests are validated
// before they reach the solver, so anything but infeasibility, a
// context cut-off, or a session lifecycle race is an internal fault.
func wireError(err error) *sched.WireError {
	code := sched.ErrCodeInternal
	switch {
	case errors.Is(err, gapsched.ErrInfeasible):
		code = sched.ErrCodeInfeasible
	case errors.Is(err, ErrShuttingDown), errors.Is(err, errSessionsFull):
		code = sched.ErrCodeUnavailable
	case errors.Is(err, gapsched.ErrSessionClosed):
		// The session was deleted or expired between lookup and use.
		code = sched.ErrCodeNotFound
	case errors.Is(err, gapsched.ErrCommitOnly), errors.Is(err, gapsched.ErrReleaseOrder),
		errors.Is(err, sched.ErrCoordinateBound):
		// Online-session contract violations, and a session whose
		// chained windows outgrow the coordinate bound: the request is
		// at fault.
		code = sched.ErrCodeBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = sched.ErrCodeCanceled
	}
	return &sched.WireError{Code: code, Message: err.Error()}
}

// httpStatus maps a wire error code to the /v1/solve response status.
func httpStatus(code string) int {
	switch code {
	case sched.ErrCodeBadRequest:
		return http.StatusBadRequest
	case sched.ErrCodeInfeasible:
		return http.StatusUnprocessableEntity
	case sched.ErrCodeCanceled:
		return http.StatusGatewayTimeout
	case sched.ErrCodeUnavailable:
		return http.StatusServiceUnavailable
	case sched.ErrCodeNotFound:
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// writeJSON writes one wire value with status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeWireError writes an error response, counting it.
func (s *Server) writeWireError(w http.ResponseWriter, we *sched.WireError) {
	s.met.bumpError(we.Code)
	writeJSON(w, httpStatus(we.Code), sched.SolveResponse{Err: we})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.met.solveRequests.Add(1)
	req, err := sched.DecodeSolveRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeWireError(w, &sched.WireError{Code: sched.ErrCodeBadRequest, Message: err.Error()})
		return
	}
	key := keyFor(req)
	done, err := s.co.enqueue(r.Context(), key, req.Instance())
	if err != nil {
		s.writeWireError(w, wireError(err))
		return
	}
	select {
	case out := <-done:
		resp := wireOutcome(out)
		if resp.Err != nil {
			s.writeWireError(w, resp.Err)
			return
		}
		s.met.countModeSolve(out.sol, costOf(key, out.sol)-out.sol.LowerBound)
		writeJSON(w, http.StatusOK, resp)
	case <-r.Context().Done():
		// The client is gone; its window still completes for the
		// benefit of coalesced peers (and the done channel is buffered,
		// so the dispatcher never blocks on us).
		s.writeWireError(w, &sched.WireError{Code: sched.ErrCodeCanceled, Message: "request canceled by client"})
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batchRequests.Add(1)
	breq, err := sched.DecodeBatchRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.met.bumpError(sched.ErrCodeBadRequest)
		writeJSON(w, http.StatusBadRequest, sched.BatchResponse{
			Err: &sched.WireError{Code: sched.ErrCodeBadRequest, Message: err.Error()},
		})
		return
	}
	s.met.batchItems.Add(int64(len(breq.Requests)))
	// Claiming a dispatch slot ties the batch into the coalescer's
	// lifecycle: Close rejects envelopes arriving after shutdown began
	// and waits for this dispatch like any windowed one.
	if err := s.co.acquire(); err != nil {
		we := wireError(err)
		s.met.bumpError(we.Code)
		writeJSON(w, httpStatus(we.Code), sched.BatchResponse{Err: we})
		return
	}
	defer s.co.release()

	// A client-built batch is already a batch: it bypasses the
	// coalescing window and dispatches immediately, grouped by solver
	// configuration, over the same shared cache. Elements fail
	// independently, mirroring SolveBatch semantics.
	resp := sched.BatchResponse{Responses: make([]sched.SolveResponse, len(breq.Requests))}
	groups := make(map[solveKey][]int)
	for i, req := range breq.Requests {
		if err := req.Validate(); err != nil {
			s.met.bumpError(sched.ErrCodeBadRequest)
			resp.Responses[i] = sched.SolveResponse{
				Err: &sched.WireError{Code: sched.ErrCodeBadRequest, Message: err.Error()},
			}
			continue
		}
		key := keyFor(req)
		groups[key] = append(groups[key], i)
	}
	ctx := r.Context()
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	for key, idxs := range groups {
		ins := make([]gapsched.Instance, len(idxs))
		for j, i := range idxs {
			ins[j] = breq.Requests[i].Instance()
		}
		s.met.dispatches.Add(1)
		// Each configuration group dispatches under its own trace, like
		// a coalesced window (queue waits do not apply — client-built
		// batches never buffer).
		tr := obs.NewTrace("batch")
		tr.SetAttr("mode", key.mode.String())
		tr.SetAttr("requests", strconv.Itoa(len(idxs)))
		if rid, ok := r.Context().Value(ridKey{}).(uint64); ok {
			tr.SetAttr("requestId", strconv.FormatUint(rid, 10))
		}
		var firstErr error
		for j, br := range s.solverFor(key).SolveBatchContext(obs.With(ctx, tr), ins) {
			out := wireOutcome(outcome{sol: br.Solution, err: br.Err})
			if out.Err != nil {
				s.met.bumpError(out.Err.Code)
				if firstErr == nil {
					firstErr = br.Err
				}
			} else {
				s.met.countModeSolve(br.Solution, costOf(key, br.Solution)-br.Solution.LowerBound)
			}
			resp.Responses[idxs[j]] = out
		}
		s.po.finishTrace(tr, firstErr)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz stays a liveness probe — always HTTP 200 — but its
// body carries the SLO verdict, so probes that parse JSON can see
// degradation without scraping /metrics.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{s.slo.evaluate(time.Now()).Status})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, s.co.buffered(), s.sessions.open(), s.cache)
	s.slo.writeProm(w, time.Now())
}

// handleTraces serves GET /v1/debug/traces: the retained solve traces,
// newest first. With retention disabled (Config.TraceRing < 0) the
// list is empty.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.po.rec.Traces()
	if traces == nil {
		traces = []obs.TraceData{}
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []obs.TraceData `json:"traces"`
	}{traces})
}
