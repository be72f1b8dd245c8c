package serve

import (
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"sramco/internal/obs"
)

// RED metrics (rate, errors, duration), labeled per endpoint × outcome.
//
// Every series is pre-registered from the fixed endpoint/outcome sets below,
// so the request hot path is two map lookups and an atomic histogram
// observe — no name formatting, no registry mutex. Label cardinality is
// bounded by construction: unknown paths collapse into the "other" endpoint.
//
// /healthz and /metrics are deliberately part of the endpoint set rather
// than excluded: load-balancer probes and scrapes land in their own labeled
// series, so they can be graphed (or ignored) without skewing the /v1/*
// latency distributions.
const (
	outcomeOK        = "ok"
	outcomeCatalog   = "catalog"
	outcomeHit       = "hit"
	outcomeMiss      = "miss"
	outcomeCoalesced = "coalesced"
	outcomeError     = "error"
	outcomeTimeout   = "timeout"
)

// batchLabel is the RED endpoint label of one /v1/batch line of op name:
// each NDJSON item is recorded under its op's sub-endpoint, next to the
// batch envelope itself.
func batchLabel(name string) string { return "/v1/batch:" + name }

var redOutcomes = []string{
	outcomeOK, outcomeCatalog, outcomeHit, outcomeMiss, outcomeCoalesced,
	outcomeError, outcomeTimeout,
}

var (
	redHist     = map[string]map[string]*obs.Histogram{}
	redErrors   = map[string]*obs.Counter{}
	redTimeouts = map[string]*obs.Counter{}
)

func init() {
	// The endpoint labels: each operation's endpoint and, for the ops
	// /v1/batch takes, its batch sub-endpoint; then the batch envelope,
	// the probes and the catch-all.
	eps := []string{"/v1/batch", "/healthz", "/metrics", "/debug/trace", "other"}
	for _, o := range ops {
		eps = append(eps, "/v1/"+o.name)
		if o.newLine != nil {
			eps = append(eps, batchLabel(o.name))
		}
	}
	for _, ep := range eps {
		byOutcome := make(map[string]*obs.Histogram, len(redOutcomes))
		for _, oc := range redOutcomes {
			byOutcome[oc] = obs.NewHistogram(obs.LabeledName("serve.request_duration", "endpoint", ep, "outcome", oc))
		}
		redHist[ep] = byOutcome
		redErrors[ep] = obs.NewCounter(obs.LabeledName("serve.request_errors", "endpoint", ep))
		redTimeouts[ep] = obs.NewCounter(obs.LabeledName("serve.request_timeouts", "endpoint", ep))
	}
}

// endpointLabel maps a request path onto the bounded endpoint label set.
func endpointLabel(path string) string {
	if _, ok := redHist[path]; ok {
		return path
	}
	return "other"
}

// outcomeFor classifies one finished request: timeouts and errors by
// status, successes by the cache tier that answered (outcomeOK when no
// tier applies — health checks, metrics scrapes, batch envelopes).
func outcomeFor(status int, cacheTier string) string {
	switch {
	case status == http.StatusGatewayTimeout:
		return outcomeTimeout
	case status >= 400:
		return outcomeError
	}
	switch cacheTier {
	case outcomeCatalog, outcomeHit, outcomeMiss, outcomeCoalesced:
		return cacheTier
	}
	return outcomeOK
}

// observeRED records one finished request into the labeled series.
func observeRED(endpoint, outcome string, d time.Duration) {
	byOutcome, ok := redHist[endpoint]
	if !ok {
		byOutcome = redHist["other"]
		endpoint = "other"
	}
	h, ok := byOutcome[outcome]
	if !ok {
		h = byOutcome[outcomeError]
		outcome = outcomeError
	}
	h.Observe(d)
	switch outcome {
	case outcomeTimeout:
		redTimeouts[endpoint].Inc()
	case outcomeError:
		redErrors[endpoint].Inc()
	}
}

// statusWriter captures the status code a handler writes (200 when the
// handler never calls WriteHeader) while passing everything else through.
// It forwards Flush so the /v1/batch per-line streaming keeps working
// behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps the service mux with the request-observability layer:
//
//   - Trace context: adopt the trace ID from an inbound W3C traceparent
//     header (minting a fresh one otherwise), store it in the request
//     context so every obs span below shares it, and echo it as both
//     X-Request-Id and an outbound traceparent.
//   - A serve.request span per request (when a trace sink is installed),
//     carrying method, path, status and outcome.
//   - RED metrics: per-endpoint × outcome duration histograms plus error
//     and timeout counters.
//   - Structured access logs through cfg.AccessLog (skipping /healthz and
//     /metrics, which would otherwise dominate the log with probe traffic).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tid, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tid = obs.NewTraceID()
		}
		ctx := obs.ContextWithTrace(r.Context(), tid)
		tp := obs.FormatTraceparent(tid, obs.NewSpanID())
		hdr := w.Header()
		// The trace ID is bytes 3..35 of the formatted traceparent; slicing
		// it out saves a second hex rendering on every request.
		requestID := tp[3:35]
		hdr.Set("X-Request-Id", requestID)
		hdr.Set("Traceparent", tp)

		sp := obs.StartSpanCtx(ctx, "serve.request")
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))

		dur := time.Since(start)
		ep := endpointLabel(r.URL.Path)
		cacheTier := hdr.Get("X-Cache")
		outcome := outcomeFor(sw.status(), cacheTier)
		observeRED(ep, outcome, dur)
		if sp.On() {
			sp.Str("method", r.Method)
			sp.Str("path", r.URL.Path)
			sp.Int("status", int64(sw.status()))
			sp.Str("outcome", outcome)
			sp.End()
		}
		if lg := s.cfg.AccessLog; lg != nil && ep != "/healthz" && ep != "/metrics" {
			lg.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status()),
				slog.String("cache", cacheTier),
				slog.Duration("dur", dur),
				slog.String("request_id", requestID),
			)
		}
	})
}

// Runtime gauges, sampled on every /metrics scrape rather than on a timer:
// scrape-driven sampling costs nothing between scrapes and is always as
// fresh as the scrape interval.
var (
	gGoroutines = obs.NewGauge("runtime.goroutines")
	gHeapAlloc  = obs.NewGauge("runtime.heap_alloc_bytes")
	gHeapSys    = obs.NewGauge("runtime.heap_sys_bytes")
	gGCPause    = obs.NewGauge("runtime.gc_pause_total_seconds")
	gGCRuns     = obs.NewGauge("runtime.gc_runs")
)

func sampleRuntimeGauges() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gGoroutines.Set(float64(runtime.NumGoroutine()))
	gHeapAlloc.Set(float64(ms.HeapAlloc))
	gHeapSys.Set(float64(ms.HeapSys))
	gGCPause.Set(float64(ms.PauseTotalNs) / 1e9)
	gGCRuns.Set(float64(ms.NumGC))
}
