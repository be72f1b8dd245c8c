package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sramco/internal/obs"
)

// syncBuffer is a bytes.Buffer safe for the handler goroutine to write
// (access log) while the test goroutine reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceEndToEnd is the tentpole's proof: one request carrying a W3C
// traceparent yields the same trace ID in the X-Request-Id response header,
// the access log line, and the /debug/trace dump — which must contain both
// the HTTP-layer span and the core search span the fill emitted.
func TestTraceEndToEnd(t *testing.T) {
	rec := obs.NewRecorder(1024)
	prev := obs.SetSink(rec)
	defer obs.SetSink(prev)

	var logBuf syncBuffer
	s := New(framework(t), Config{
		Recorder:  rec,
		AccessLog: slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize",
		strings.NewReader(`{"capacity_bytes":256,"flavor":"lvt"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The inbound trace ID is adopted, not re-minted.
	if got := resp.Header.Get("X-Request-Id"); got != traceID {
		t.Fatalf("X-Request-Id = %q, want the inbound trace ID %q", got, traceID)
	}
	outTP, _, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || outTP.String() != traceID {
		t.Errorf("outbound traceparent %q does not continue the trace", resp.Header.Get("Traceparent"))
	}

	// The access log line and the recorded spans land just after the
	// response is written; poll rather than assume ordering.
	waitFor(t, "access log line with the trace ID", func() bool {
		line := logBuf.String()
		return strings.Contains(line, traceID) && strings.Contains(line, "path=/v1/optimize")
	})

	var dumps []struct {
		TraceID string `json:"trace_id"`
		Events  []struct {
			Name string `json:"name"`
		} `json:"events"`
	}
	waitFor(t, "/debug/trace to contain the request's spans", func() bool {
		r, err := http.Get(ts.URL + "/debug/trace?limit=8")
		if err != nil {
			return false
		}
		defer r.Body.Close()
		dumps = dumps[:0]
		if err := json.NewDecoder(r.Body).Decode(&dumps); err != nil {
			return false
		}
		for _, d := range dumps {
			if d.TraceID != traceID {
				continue
			}
			var gotServe, gotSearch bool
			for _, ev := range d.Events {
				gotServe = gotServe || ev.Name == "serve.request"
				gotSearch = gotSearch || ev.Name == "core.search"
			}
			return gotServe && gotSearch
		}
		return false
	})

	// A request without a traceparent gets a freshly minted, parseable ID.
	code, hdr, _ := postJSON(t, ts.URL+"/v1/optimize", `{"capacity_bytes":256,"flavor":"lvt"}`)
	if code != http.StatusOK {
		t.Fatalf("untraced request: status %d", code)
	}
	minted := hdr.Get("X-Request-Id")
	if _, ok := obs.ParseTraceID(minted); !ok || minted == traceID {
		t.Errorf("minted X-Request-Id %q invalid or reused", minted)
	}

	// Bad limit values are rejected, not silently defaulted.
	r, err := http.Get(ts.URL + "/debug/trace?limit=-1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=-1: status %d, want 400", r.StatusCode)
	}
}

// redCount reads the per-endpoint × outcome request-duration series.
func redCount(endpoint, outcome string) int64 {
	return obs.Default().Histogram(
		obs.LabeledName("serve.request_duration", "endpoint", endpoint, "outcome", outcome)).Count()
}

// TestREDSeriesPerEndpointOutcome drives one endpoint through its outcomes
// — cold miss, warm hit, catalog answer, client error — and asserts each
// lands in a differently-labeled series of the same family, with the error
// counter moving only for the error.
func TestREDSeriesPerEndpointOutcome(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const ep = "/v1/optimize"
	body := `{"capacity_bytes":512,"flavor":"hvt"}`
	base := map[string]int64{}
	for _, oc := range []string{"miss", "hit", "catalog", "error"} {
		base[oc] = redCount(ep, oc)
	}
	errsBefore := obs.Default().CounterValue(
		obs.LabeledName("serve.request_errors", "endpoint", ep))

	expect := func(what, oc string, want int64) {
		t.Helper()
		waitFor(t, what, func() bool { return redCount(ep, oc)-base[oc] == want })
	}

	if code, _, b := postJSON(t, ts.URL+ep, body); code != http.StatusOK {
		t.Fatalf("cold request: %d %s", code, b)
	}
	expect("cold request in the miss series", "miss", 1)

	if code, hdr, _ := postJSON(t, ts.URL+ep, body); code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("warm request not a hit")
	}
	expect("warm request in the hit series", "hit", 1)
	expect("warm request not in the miss series", "miss", 1)

	// Install a catalog covering this request: same key, new tier, new label.
	cat, err := s.BuildCatalog(context.Background(), CatalogGrid{
		CapacitiesBytes: []int{512},
		Flavors:         []string{"hvt"},
		Methods:         []string{"m2"},
		Objectives:      []string{"edp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetCatalog(cat)
	if code, hdr, _ := postJSON(t, ts.URL+ep, body); code != http.StatusOK || hdr.Get("X-Cache") != "catalog" {
		t.Fatalf("catalog request: code %d X-Cache %q", code, hdr.Get("X-Cache"))
	}
	expect("catalog answer in the catalog series", "catalog", 1)

	if code, _, _ := postJSON(t, ts.URL+ep, `{"capacity_bytes":`); code != http.StatusBadRequest {
		t.Fatalf("malformed request: %d, want 400", code)
	}
	expect("bad request in the error series", "error", 1)
	waitFor(t, "endpoint error counter", func() bool {
		return obs.Default().CounterValue(
			obs.LabeledName("serve.request_errors", "endpoint", ep))-errsBefore == 1
	})
}

// TestProbeAndUnknownEndpointLabels pins the satellite decision: /healthz
// and /metrics get their own labeled series (not mixed into /v1/*, not
// dropped), unknown paths collapse into "other", and probe traffic stays
// out of the access log.
func TestProbeAndUnknownEndpointLabels(t *testing.T) {
	var logBuf syncBuffer
	s := New(framework(t), Config{AccessLog: slog.New(slog.NewTextHandler(&logBuf, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	healthBefore := redCount("/healthz", "ok")
	metricsBefore := redCount("/metrics", "ok")
	otherBefore := redCount("other", "error")

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", resp.StatusCode)
	}

	waitFor(t, "healthz probe in its own series", func() bool {
		return redCount("/healthz", "ok")-healthBefore == 1
	})
	waitFor(t, "metrics scrape in its own series", func() bool {
		return redCount("/metrics", "ok")-metricsBefore == 1
	})
	waitFor(t, "unknown path in the other series", func() bool {
		return redCount("other", "error")-otherBefore == 1
	})

	// Probe traffic must not reach the access log; the 404 must.
	waitFor(t, "404 in the access log", func() bool {
		return strings.Contains(logBuf.String(), "/no/such/path")
	})
	if log := logBuf.String(); strings.Contains(log, "/healthz") || strings.Contains(log, "path=/metrics") {
		t.Errorf("probe traffic leaked into the access log:\n%s", log)
	}
}

// TestPromExposesLabeledSeriesAndRuntimeGauges checks the scrape surface:
// the per-endpoint histograms render as one family with real labels, and
// the runtime gauges are sampled on scrape.
func TestPromExposesLabeledSeriesAndRuntimeGauges(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Traffic so the optimize series is non-empty.
	postJSON(t, ts.URL+"/v1/optimize", optimizeBody)

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	prom := out.String()

	for _, want := range []string{
		"# TYPE serve_request_duration_seconds histogram",
		`serve_request_duration_seconds_count{endpoint="/v1/optimize",outcome="miss"}`,
		`serve_request_duration_seconds_bucket{endpoint="/v1/optimize",outcome="miss",le="+Inf"}`,
		"# TYPE runtime_goroutines gauge",
		"# TYPE runtime_heap_alloc_bytes gauge",
		"# TYPE serve_request_errors counter",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	// One TYPE line for the whole request_duration family, not one per series.
	if n := strings.Count(prom, "# TYPE serve_request_duration_seconds histogram"); n != 1 {
		t.Errorf("request_duration family has %d TYPE lines, want 1", n)
	}
	// Runtime gauges are sampled on scrape: goroutines is never zero in a
	// running process.
	if strings.Contains(prom, "runtime_goroutines 0\n") {
		t.Error("runtime_goroutines not sampled on scrape")
	}
}

// TestBatchItemsLandInSubEndpointSeries verifies per-line batch accounting
// for every op /v1/batch takes: items are recorded under /v1/batch:<op>,
// separate from the envelope.
func TestBatchItemsLandInSubEndpointSeries(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two lines per op, each its own miss.
	lines := map[string][]string{
		"evaluate": {
			`{"op":"evaluate","flavor":"hvt","nr":64,"nc":128,"npre":2,"nwr":2}`,
			`{"op":"evaluate","flavor":"hvt","nr":64,"nc":128,"npre":2,"nwr":4}`,
		},
		"optimize": {
			`{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}`,
			`{"op":"optimize","capacity_bytes":128,"flavor":"lvt"}`,
		},
		"pareto": {
			`{"op":"pareto","capacity_bytes":128,"flavor":"hvt"}`,
			`{"op":"pareto","capacity_bytes":128,"flavor":"lvt"}`,
		},
	}
	var body strings.Builder
	before := map[string]int64{}
	for _, o := range ops {
		if o.newLine == nil {
			continue
		}
		if len(lines[o.name]) == 0 {
			t.Fatalf("no test lines for batch op %q", o.name)
		}
		for _, l := range lines[o.name] {
			body.WriteString(l + "\n")
		}
		before[o.name] = redCount(batchLabel(o.name), "miss")
	}
	envBefore := redCount("/v1/batch", "ok")

	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	_, _ = sink.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, sink.String())
	}

	for name, n := range before {
		waitFor(t, "batch "+name+" items in the sub-endpoint series", func() bool {
			return redCount(batchLabel(name), "miss")-n == int64(len(lines[name]))
		})
	}
	waitFor(t, "batch envelope in its own series", func() bool {
		return redCount("/v1/batch", "ok")-envBefore == 1
	})
}
