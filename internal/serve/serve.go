// Package serve is the sramco optimization service: an HTTP/JSON layer over
// the co-optimization framework with a bounded LRU result cache, request
// coalescing, a worker pool with per-request deadlines, and drain-on-
// shutdown semantics.
//
// Endpoints:
//
//	POST /v1/optimize  — minimum-objective design search (OptimizeRequest)
//	POST /v1/evaluate  — analytical model on one explicit design point
//	POST /v1/pareto    — full energy-delay frontier of the search space
//	POST /v1/yield     — Monte Carlo margin analysis (YieldRequest)
//	POST /v1/batch     — many optimize/evaluate/pareto items in one NDJSON
//	                     body, results streamed back line by line
//	GET  /healthz      — liveness; 503 once draining
//	GET  /metrics      — obs registry snapshot (JSON; ?format=prom for
//	                     Prometheus text exposition)
//
// Requests are canonicalized (defaults filled, names lowercased) before
// anything else happens, and the canonical form is the cache key: two
// requests that mean the same computation hit the same cache entry no
// matter how they were spelled. Responses are cached as the exact bytes
// sent to the first caller, so cache hits are bit-identical to the fill.
// While a fill is in flight, identical requests coalesce onto it instead
// of starting their own search.
//
// The read path is three tiers (X-Cache reports which answered): the
// precomputed design-space catalog (`catalog`, see internal/catalog and
// DESIGN.md §9), the LRU result cache (`hit`), then a live fill on the
// worker pool (`miss`, or `coalesced` when the caller attached to another
// request's fill).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sramco"
	"sramco/internal/catalog"
	"sramco/internal/mc"
	"sramco/internal/num"
	"sramco/internal/obs"
)

// Service metrics. cache.miss counts fills (one per unique in-flight key),
// not lookups that found nothing: a request that coalesces onto a running
// fill counts under serve.coalesced only.
var (
	mRequests   = obs.NewCounter("serve.requests")
	mCacheHit   = obs.NewCounter("serve.cache.hit")
	mCacheMiss  = obs.NewCounter("serve.cache.miss")
	mCatalogHit = obs.NewCounter("serve.catalog.hit")
	mCoalesced  = obs.NewCounter("serve.coalesced")
	mErrors     = obs.NewCounter("serve.errors")
	mRejected   = obs.NewCounter("serve.rejected") // refused while draining
	gInflight   = obs.NewGauge("serve.inflight")
)

// errDraining rejects new work once shutdown has begun.
var errDraining = errors.New("serve: server is draining")

// Config tunes a Server; zero values select the defaults.
type Config struct {
	CacheSize int           // LRU result-cache entries (default 256; negative disables)
	Timeout   time.Duration // per-request compute deadline cap (default 60s)
	Workers   int           // concurrent optimizer runs (default GOMAXPROCS)

	// AccessLog, when non-nil, receives one structured line per request
	// (method, path, status, cache tier, duration, request ID). /healthz
	// and /metrics probe traffic is not logged.
	AccessLog *slog.Logger

	// Recorder, when non-nil, enables the GET /debug/trace endpoint, which
	// dumps the recorder's buffered spans grouped by trace. The caller is
	// responsible for also installing the recorder as (part of) the obs
	// sink — the server only reads from it.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Server is the optimization service. Create with New, mount Handler on an
// http.Server, and call Drain before exiting.
type Server struct {
	fw  *sramco.Framework
	cfg Config

	cache  *lruCache
	flight *flightGroup
	sem    chan struct{} // worker-pool slots

	// cat is the precomputed design-space catalog, consulted before the LRU
	// cache. Installed and swapped atomically (SetCatalog); nil when no
	// catalog is loaded.
	cat atomic.Pointer[catalog.Catalog]

	// baseCtx parents every compute context, so runs survive individual
	// client disconnects (other coalesced waiters may still want the
	// result) but die when the server gives up draining.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware

	// Test seams: the concurrency tests gate these to hold fills open.
	optimizeFn func(context.Context, sramco.Options) (*sramco.Optimum, error)
	paretoFn   func(context.Context, sramco.Options) (*sramco.ParetoResult, error)
	yieldFn    func(context.Context, sramco.MCConfig, func(sramco.MCCheckpoint) error) (*sramco.MCResult, error)
}

// New builds a Server over a characterized framework.
func New(fw *sramco.Framework, cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		fw:         fw,
		cfg:        cfg,
		cache:      newLRUCache(cfg.CacheSize),
		flight:     newFlightGroup(),
		sem:        make(chan struct{}, cfg.Workers),
		baseCtx:    baseCtx,
		baseCancel: cancel,
		optimizeFn: fw.Optimize,
		paretoFn:   fw.Pareto,
		yieldFn:    sramco.MonteCarloYield,
	}
	s.mux = http.NewServeMux()
	for _, o := range ops {
		s.mux.HandleFunc("/v1/"+o.name, s.handle(o))
	}
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Recorder != nil {
		s.mux.HandleFunc("/debug/trace", s.handleDebugTrace)
	}
	s.handler = s.instrument(s.mux)
	return s
}

// Handler returns the service's HTTP handler: the endpoint mux wrapped in
// the request-observability middleware (trace propagation, RED metrics,
// access logs — see instrument).
func (s *Server) Handler() http.Handler { return s.handler }

// Drain stops admitting /v1/* requests (healthz flips to 503), waits for
// every in-flight request to finish, and only then cancels the compute
// context. If ctx expires first, in-flight runs are canceled and Drain
// returns the ctx error — work is dropped only when the caller's drain
// budget runs out, never silently.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel(errDraining)
		return nil
	case <-ctx.Done():
		s.baseCancel(errDraining)
		<-done // runs unwind promptly once canceled
		return ctx.Err()
	}
}

// admit registers one in-flight request; it fails once draining. The
// returned release must be called when the request finishes.
func (s *Server) admit() (release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		mRejected.Inc()
		return nil, errDraining
	}
	s.inflight.Add(1)
	// Gauge.Add, not Add-then-Set: concurrent Sets can land out of order
	// and leave the published gauge stale after both requests finish.
	gInflight.Add(1)
	return func() {
		gInflight.Add(-1)
		s.inflight.Done()
	}, nil
}

// acquire takes a worker-pool slot, waiting until one frees up or ctx is
// done.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (s *Server) release() { <-s.sem }

// effectiveTimeout caps a client-requested deadline by the server's.
func (s *Server) effectiveTimeout(timeoutMS int) time.Duration {
	d := s.cfg.Timeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; req < d {
			d = req
		}
	}
	return d
}

// lookup answers key from the tiers that hold finished bytes: the catalog,
// then the LRU cache. state names the tier that answered ("catalog" or
// "hit"); ok is false on a miss, which fill answers.
func (s *Server) lookup(key string) (res cached, state string, ok bool) {
	if cat := s.cat.Load(); cat != nil {
		if body, ok := cat.Lookup(key); ok {
			mCatalogHit.Inc()
			return cached{status: http.StatusOK, body: body}, "catalog", true
		}
	}
	if res, ok := s.cache.Get(key); ok {
		mCacheHit.Inc()
		return res, "hit", true
	}
	return cached{}, "", false
}

// fill answers a key lookup missed: a coalesced fill on the worker pool,
// cached on success. The returned state is "miss", or "coalesced" when
// this caller attached to another request's fill. waitCtx governs only how
// long this caller waits for a result; the fill itself runs under the
// server's base context and compute cap — a coalesced fill may outlive the
// client that started it, and a client's short deadline must never poison
// the fill for patient waiters (DESIGN.md §8).
func (s *Server) fill(waitCtx context.Context, key string, fill fillFunc) (cached, string, error) {
	res, shared, err := s.flight.Do(waitCtx, key, func() (cached, error) {
		mCacheMiss.Inc()
		// The fill's deadline is the server cap, never the first caller's
		// requested timeout: waitCtx already bounds each caller's wait, and
		// deriving runCtx from a client deadline would abort the shared
		// computation for everyone coalesced onto it. Only the leader's
		// trace ID carries over, so the fill's search spans join the trace
		// of the request that started it (coalesced waiters see the result,
		// not the spans — DESIGN.md §10).
		runCtx, cancelRun := context.WithTimeout(s.baseCtx, s.cfg.Timeout)
		defer cancelRun()
		runCtx = obs.ContextWithTrace(runCtx, obs.TraceIDFrom(waitCtx))
		if err := s.acquire(runCtx); err != nil {
			return cached{}, err
		}
		defer s.release()
		res, err := render(runCtx, fill)
		if err != nil {
			return cached{}, err
		}
		s.cache.Put(key, res)
		return res, nil
	})
	state := "miss"
	if shared {
		mCoalesced.Inc()
		state = "coalesced"
	}
	return res, state, err
}

// render runs a fill and encodes its value as the response bytes. It is
// the one encoder behind live fills and catalog entries, which makes
// catalog hits bit-identical to live answers by construction.
// Infeasibility is a deterministic property of the canonical request, so
// it renders as the structured 422 envelope and caches exactly like a
// success: identical requests never re-run the search.
func render(ctx context.Context, fill fillFunc) (cached, error) {
	v, err := fill(ctx)
	status := http.StatusOK
	if errors.Is(err, sramco.ErrInfeasible) {
		aerr := asAPIError(err)
		v, status, err = errorEnvelope{Error: *aerr}, aerr.Status, nil
	}
	if err != nil {
		return cached{}, err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return cached{}, fmt.Errorf("serve: encoding response: %w", err)
	}
	return cached{status: status, body: b}, nil
}

// handle serves operation o's own endpoint: decode and normalize the body,
// then answer through the read path — a hit from the bytes a tier holds, a
// miss by a fill under the caller's deadline — or, for /v1/yield?stream=1,
// stream the run's checkpoints uncached.
func (s *Server) handle(o *op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Message: "use POST with a JSON body"})
			return
		}
		req := o.newRequest()
		aerr := decodeJSON(r.Body, req)
		if aerr == nil {
			aerr = req.normalize()
		}
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		mRequests.Inc()
		release, err := s.admit()
		if err != nil {
			writeError(w, asAPIError(err))
			return
		}
		defer release()
		if y, ok := req.(*YieldRequest); ok && r.URL.Query().Get("stream") == "1" {
			s.handleYieldStream(w, r, y)
			return
		}

		key, timeoutMS, fill := req.call(s, o)
		res, state, ok := s.lookup(key)
		if !ok {
			waitCtx, cancelWait := context.WithTimeout(r.Context(), s.effectiveTimeout(timeoutMS))
			defer cancelWait()
			if res, state, err = s.fill(waitCtx, key, fill); err != nil {
				writeError(w, asAPIError(err))
				return
			}
		}
		writeCached(w, res, state)
	}
}

// OptimizeResponse is the body of a successful /v1/optimize call. Request
// echoes the canonical (normalized, deadline-stripped) request that keyed
// the cache entry.
type OptimizeResponse struct {
	Request OptimizeRequest    `json:"request"`
	Design  sramco.Design      `json:"design"`
	EDP     float64            `json:"edp_js"`
	DelayS  float64            `json:"delay_s"`
	EnergyJ float64            `json:"energy_j"`
	Result  *sramco.Result     `json:"result"`
	Stats   sramco.SearchStats `json:"search_stats"`
}

// EvaluateResponse is the body of a successful /v1/evaluate call.
type EvaluateResponse struct {
	Request EvaluateRequest `json:"request"`
	EDP     float64         `json:"edp_js"`
	DelayS  float64         `json:"delay_s"`
	EnergyJ float64         `json:"energy_j"`
	Result  *sramco.Result  `json:"result"`
}

// ParetoResponse is the body of a successful /v1/pareto call.
type ParetoResponse struct {
	Request OptimizeRequest      `json:"request"`
	Front   []sramco.DesignPoint `json:"front"`
	Stats   sramco.SearchStats   `json:"search_stats"`
}

// scrubStats zeroes the environmental search-stats fields (wall-clock time,
// worker count) before a response is encoded. Response bodies are cached,
// replayed verbatim and precomputed into catalogs, so they must depend only
// on the canonical request and the technology — not on the machine or the
// moment that happened to run the fill.
func scrubStats(st *sramco.SearchStats) {
	st.Wall = 0
	st.Workers = 0
}

// YieldResponse is the body of a successful /v1/yield call: the margin
// summaries and the paper's yield statistics, without the raw samples.
type YieldResponse struct {
	Request YieldRequest `json:"request"`
	Samples int          `json:"samples"`

	HSNM *num.Summary `json:"hsnm,omitempty"`
	RSNM *num.Summary `json:"rsnm,omitempty"`
	WM   *num.Summary `json:"wm,omitempty"`

	// MuMinus3Sigma is the paper's μ−3σ yield statistic per computed metric
	// (importance-weighted when the request set a tilt).
	MuMinus3Sigma map[string]float64 `json:"mu_minus_3sigma"`
	// DeltaV is the yield requirement δ = 0.35·Vdd; FailFraction is the
	// (weighted) fraction of samples whose minimum margin falls below it.
	DeltaV       float64 `json:"delta_v"`
	FailFraction float64 `json:"fail_fraction"`

	// Streaming-estimator extras, present when the request set rel_ci or a
	// tilt: convergence state and the Wilson 95% bounds on the fail fraction.
	Converged bool     `json:"converged,omitempty"`
	FailLo    *float64 `json:"fail_ci_lo,omitempty"`
	FailHi    *float64 `json:"fail_ci_hi,omitempty"`
}

// yieldResponse builds the body of a non-streaming /v1/yield answer. The
// summaries describe the drawn values, and the fail fraction is the final
// checkpoint's (the plain count fraction under unit weights). A request
// that set rel_ci or a tilt also gets the checkpoint's other weighted
// estimators: μ−3σ, the Wilson bounds on the fail fraction, and whether the
// run converged. Any other request gets μ−3σ from the summary; the
// checkpoint's Welford μ−3σ differs from the summary's two-pass value by a
// few ulps, so those answers keep the two-pass value.
func yieldResponse(req *YieldRequest, res *sramco.MCResult) *YieldResponse {
	final := res.Final
	resp := &YieldResponse{
		Request:       *req,
		Samples:       res.Stats.Samples,
		MuMinus3Sigma: map[string]float64{},
		DeltaV:        final.Delta,
		FailFraction:  final.FailFraction,
	}
	weighted := req.RelCI > 0 || req.Tilt > 1
	if weighted {
		resp.Converged = final.Converged
		resp.FailLo, resp.FailHi = &final.FailLo, &final.FailHi
	}
	metric := func(name string, sum num.Summary, stat *sramco.MCMetricStat) *num.Summary {
		if stat == nil {
			return nil // not requested
		}
		mu3 := mc.MuMinusKSigma(sum, 3)
		if weighted {
			mu3 = stat.Mu3
		}
		resp.MuMinus3Sigma[name] = mu3
		return &sum
	}
	resp.HSNM = metric("hsnm", res.HSNM, final.HSNM)
	resp.RSNM = metric("rsnm", res.RSNM, final.RSNM)
	resp.WM = metric("wm", res.WM, final.WM)
	return resp
}

// handleYieldStream answers POST /v1/yield?stream=1: NDJSON checkpoint
// lines as the Monte Carlo engine converges, the last one marked final (and
// converged when the run early-stopped on rel_ci). Streams are never cached
// or coalesced — each request runs its own engine under the client's
// deadline — so two identical streams emit identical lines but compute
// independently. A mid-stream failure becomes a trailing {"error": ...}
// line, since the 200 header is already on the wire. The caller has
// admitted the request.
func (s *Server) handleYieldStream(w http.ResponseWriter, r *http.Request, req *YieldRequest) {
	ctx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout(req.timeoutMS))
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		writeError(w, asAPIError(err))
		return
	}
	defer s.release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	_, err := s.yieldFn(ctx, req.cfg, func(cp sramco.MCCheckpoint) error {
		if err := enc.Encode(cp); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		mErrors.Inc()
		// Best effort: the client may already be gone.
		_ = enc.Encode(errorEnvelope{Error: *asAPIError(err)})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sampleRuntimeGauges()
	snap := obs.Default().Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WriteProm(w); err != nil {
			mErrors.Inc()
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := snap.WriteJSON(w); err != nil {
		mErrors.Inc()
	}
}

// handleDebugTrace answers GET /debug/trace: the span recorder's buffered
// events grouped by trace ID, most recently active trace first, up to
// ?limit=N traces (default 16, 0 = all).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	limit := 16
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, badRequest("limit query parameter %q must be a non-negative integer", q))
			return
		}
		limit = v
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.cfg.Recorder.Traces(limit)); err != nil {
		mErrors.Inc()
	}
}

// errorEnvelope is the structured body of every non-2xx response.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

func writeError(w http.ResponseWriter, aerr *apiError) {
	mErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(aerr.Status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: *aerr})
}

// writeCached replays a cached response: the tier that answered goes in
// X-Cache, and a cached failure (422 infeasible envelope) replays its
// original status.
func writeCached(w http.ResponseWriter, res cached, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	if res.status != http.StatusOK {
		mErrors.Inc()
		w.WriteHeader(res.status)
	}
	_, _ = w.Write(res.body)
}

// isDeadline reports whether err is (or wraps) a deadline expiry.
func isDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }

// isCanceled reports whether err is (or wraps) a context cancellation.
func isCanceled(err error) bool { return errors.Is(err, context.Canceled) }
