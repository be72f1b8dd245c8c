package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sramco"
	"sramco/internal/obs"
)

// testFW shares one characterized framework across every test in the
// package; construction runs circuit simulations and is not free.
var testFW = sync.OnceValues(func() (*sramco.Framework, error) {
	return sramco.NewFramework(sramco.TechPaper)
})

func framework(t testing.TB) *sramco.Framework {
	t.Helper()
	fw, err := testFW()
	if err != nil {
		t.Fatalf("NewFramework: %v", err)
	}
	return fw
}

// counterDeltas snapshots the serve counters so a test can assert on the
// deltas it caused, independent of other tests in the package.
type counterDeltas struct {
	names  []string
	before map[string]int64
}

func snapshotCounters(names ...string) *counterDeltas {
	d := &counterDeltas{names: names, before: map[string]int64{}}
	for _, n := range names {
		d.before[n] = obs.Default().CounterValue(n)
	}
	return d
}

func (d *counterDeltas) delta(name string) int64 {
	return obs.Default().CounterValue(name) - d.before[name]
}

func postJSON(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

const optimizeBody = `{"capacity_bytes":128,"flavor":"hvt","method":"m2"}`

func TestOptimizeEndpoint(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, hdr, body := postJSON(t, ts.URL+"/v1/optimize", optimizeBody)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if bits := resp.Design.Geom.NR * resp.Design.Geom.NC; bits != 128*8 {
		t.Errorf("optimum holds %d bits, want %d", bits, 128*8)
	}
	if resp.EDP <= 0 || resp.DelayS <= 0 || resp.EnergyJ <= 0 {
		t.Errorf("non-positive metrics: %+v", resp)
	}
	if resp.Request.Method != "m2" || resp.Request.Objective != "edp" {
		t.Errorf("request echo not canonical: %+v", resp.Request)
	}
	if resp.Stats.Evaluated == 0 {
		t.Error("search stats missing from response")
	}

	// A repeat must be a cache hit with a bit-identical body.
	code2, hdr2, body2 := postJSON(t, ts.URL+"/v1/optimize", optimizeBody)
	if code2 != http.StatusOK || hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q", code2, hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached body differs from original")
	}
}

func TestCanonicalizationSharesCacheEntries(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Five spellings of the same search: flavor case, explicit defaults.
	bodies := []string{
		`{"capacity_bytes":128,"flavor":"HVT"}`,
		`{"capacity_bytes":128,"flavor":"hvt","method":"M2"}`,
		`{"capacity_bytes":128,"flavor":"hvt","method":"m2","objective":"edp"}`,
		`{"capacity_bytes":128,"flavor":"hvt","alpha":0.5,"beta":0.5}`,
		`{"capacity_bytes":128,"flavor":"hvt","w":64,"timeout_ms":55000}`,
	}
	d := snapshotCounters("serve.cache.miss", "serve.cache.hit")
	var first []byte
	for i, b := range bodies {
		code, _, body := postJSON(t, ts.URL+"/v1/optimize", b)
		if code != http.StatusOK {
			t.Fatalf("spelling %d: status %d, body %s", i, code, body)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Errorf("spelling %d produced a different body", i)
		}
	}
	if got := d.delta("serve.cache.miss"); got != 1 {
		t.Errorf("cache misses = %d, want 1 (all spellings share one key)", got)
	}
	if got := d.delta("serve.cache.hit"); got != int64(len(bodies)-1) {
		t.Errorf("cache hits = %d, want %d", got, len(bodies)-1)
	}
}

// TestCoalescing floods the server with concurrent identical requests and
// asserts exactly one underlying search ran: one cache fill, everyone else
// either coalesced onto it or (after it finished) hit the cache, and every
// body is bit-identical.
func TestCoalescing(t *testing.T) {
	const n = 100
	fw := framework(t)
	s := New(fw, Config{Workers: 4})

	gate := make(chan struct{})
	var searches atomic.Int64
	s.optimizeFn = func(ctx context.Context, opts sramco.Options) (*sramco.Optimum, error) {
		searches.Add(1)
		<-gate
		return fw.Optimize(ctx, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := snapshotCounters("serve.cache.miss", "serve.cache.hit", "serve.coalesced")

	type result struct {
		code int
		body []byte
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			code, _, body := func() (int, http.Header, []byte) {
				resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(optimizeBody))
				if err != nil {
					return 0, nil, []byte(err.Error())
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, resp.Header, b
			}()
			results <- result{code, body}
		}()
	}

	// Wait until the leader is inside the gated fill and the other n-1
	// callers are all registered on it, then release the gate: nothing can
	// have fallen through to a cache hit, so they must all coalesce.
	deadline := time.After(30 * time.Second)
	for searches.Load() < 1 || s.flight.waiters() < n-1 {
		select {
		case <-deadline:
			t.Fatalf("stuck waiting for coalescing: searches=%d waiters=%d",
				searches.Load(), s.flight.waiters())
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)

	var first []byte
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("request failed: status %d, body %s", r.code, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Errorf("response %d not bit-identical to the first", i)
		}
	}

	if got := searches.Load(); got != 1 {
		t.Errorf("underlying searches = %d, want exactly 1", got)
	}
	if got := d.delta("serve.cache.miss"); got != 1 {
		t.Errorf("serve.cache.miss = %d, want 1", got)
	}
	if got := d.delta("serve.coalesced"); got < n-1 {
		t.Errorf("serve.coalesced = %d, want >= %d", got, n-1)
	}

	// After the fill, the same request is a plain cache hit, bit-identical.
	code, hdr, body := postJSON(t, ts.URL+"/v1/optimize", optimizeBody)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("post-fill request: status %d X-Cache %q", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(first, body) {
		t.Error("cache hit body differs from coalesced bodies")
	}
}

// TestDrain verifies the shutdown sequence: draining refuses new work,
// flips healthz to 503, but the in-flight request finishes and is answered.
func TestDrain(t *testing.T) {
	fw := framework(t)
	s := New(fw, Config{})

	gate := make(chan struct{})
	entered := make(chan struct{})
	var enterOnce sync.Once
	s.optimizeFn = func(ctx context.Context, opts sramco.Options) (*sramco.Optimum, error) {
		enterOnce.Do(func() { close(entered) })
		<-gate
		return fw.Optimize(ctx, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(optimizeBody))
		if err != nil {
			inflight <- struct {
				code int
				body []byte
			}{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- struct {
			code int
			body []byte
		}{resp.StatusCode, b}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Draining must become observable: healthz flips to 503 and new /v1/*
	// work is refused while the in-flight request is still running.
	waitFor(t, "healthz to report draining", func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	if code, _, body := postJSON(t, ts.URL+"/v1/optimize", `{"capacity_bytes":256,"flavor":"lvt"}`); code != http.StatusServiceUnavailable {
		t.Errorf("new request during drain: status %d, body %s, want 503", code, body)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a request still in flight", err)
	default:
	}

	close(gate)
	r := <-inflight
	if r.code != http.StatusOK {
		t.Errorf("in-flight request dropped during drain: status %d, body %s", r.code, r.body)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain: %v", err)
	}
}

// TestDeadlinePropagation proves the per-request deadline reaches the
// optimizer's context: the fill blocks until its ctx is done, so only the
// propagated deadline can unblock it.
func TestDeadlinePropagation(t *testing.T) {
	s := New(framework(t), Config{})
	s.optimizeFn = func(ctx context.Context, opts sramco.Options) (*sramco.Optimum, error) {
		if _, ok := ctx.Deadline(); !ok {
			t.Error("optimizer ctx has no deadline")
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	code, _, body := postJSON(t, ts.URL+"/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt","timeout_ms":50}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s, want 504", code, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline took %s to fire", elapsed)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Status != http.StatusGatewayTimeout {
		t.Errorf("error body not structured: %s", body)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, body := postJSON(t, ts.URL+"/v1/evaluate",
		`{"flavor":"hvt","nr":64,"nc":16,"npre":4,"nwr":4,"vssc":-0.07}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.EDP <= 0 {
		t.Errorf("EDP = %g", resp.EDP)
	}
	// The method-pinned rails must have been applied.
	if resp.Result.Design.VDDC <= 0 || resp.Result.Design.VWL <= 0 {
		t.Errorf("rails not pinned: %+v", resp.Result.Design)
	}
}

func TestParetoEndpoint(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, body := postJSON(t, ts.URL+"/v1/pareto", `{"capacity_bytes":128,"flavor":"hvt"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	var resp ParetoResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	for i := 1; i < len(resp.Front); i++ {
		if resp.Front[i].Result.DArray < resp.Front[i-1].Result.DArray {
			t.Error("front not sorted by increasing delay")
		}
	}
}

func TestYieldEndpoint(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, body := postJSON(t, ts.URL+"/v1/yield",
		`{"flavor":"hvt","n":16,"seed":7,"metrics":["wm","hsnm"]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	var resp YieldResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Samples != 16 {
		t.Errorf("samples = %d, want 16", resp.Samples)
	}
	if resp.HSNM == nil || resp.WM == nil || resp.RSNM != nil {
		t.Errorf("metric selection not honored: %+v", resp)
	}
	// Request order "wm","hsnm" canonicalizes to the fixed order.
	if got := strings.Join(resp.Request.Metrics, ","); got != "hsnm,wm" {
		t.Errorf("canonical metrics = %q, want hsnm,wm", got)
	}
}

// TestEvaluateRejectsNegativeWLSegs: a negative wl_segs is a named 400 on
// /v1/evaluate and as a batch line, not a flat wordline under a cache key
// of its own, while 0 and 1 both spell the flat wordline.
func TestEvaluateRejectsNegativeWLSegs(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const geom = `"flavor":"hvt","nr":64,"nc":64,"npre":1,"nwr":1`
	for path, body := range map[string]string{
		"/v1/evaluate": `{` + geom + `,"wl_segs":-4}`,
		"/v1/batch":    `{"op":"evaluate",` + geom + `,"wl_segs":-4}`,
	} {
		code, _, body := postJSON(t, ts.URL+path, body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s wl_segs=-4: status %d, body %s, want 400", path, code, body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || !strings.Contains(env.Error.Message, "WLSegs = -4") {
			t.Errorf("%s wl_segs=-4: envelope %s does not name WLSegs = -4 (%v)", path, body, err)
		}
	}

	var results [2]EvaluateResponse
	for i, segs := range []string{"0", "1"} {
		code, _, body := postJSON(t, ts.URL+"/v1/evaluate", `{`+geom+`,"wl_segs":`+segs+`}`)
		if code != http.StatusOK {
			t.Fatalf("wl_segs=%s: status %d, body %s", segs, code, body)
		}
		if err := json.Unmarshal(body, &results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if results[0].EDP != results[1].EDP || results[0].Request.WLSegs != 1 {
		t.Errorf("wl_segs 0 and 1 differ: EDP %g vs %g, canonical wl_segs %d", results[0].EDP, results[1].EDP, results[0].Request.WLSegs)
	}
}

func TestRequestValidation(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
	}{
		{"malformed JSON", "/v1/optimize", `{"capacity_bytes":`},
		{"unknown field", "/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt","bogus":1}`},
		{"trailing garbage", "/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt"} extra`},
		{"bad flavor", "/v1/optimize", `{"capacity_bytes":128,"flavor":"xvt"}`},
		{"bad method", "/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt","method":"m3"}`},
		{"bad objective", "/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt","objective":"speed"}`},
		{"non power of two", "/v1/optimize", `{"capacity_bytes":100,"flavor":"hvt"}`},
		{"zero capacity", "/v1/optimize", `{"flavor":"hvt"}`},
		{"huge capacity", "/v1/optimize", `{"capacity_bytes":1073741824,"flavor":"hvt"}`},
		{"bad activity", "/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt","alpha":1.5}`},
		{"negative timeout", "/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt","timeout_ms":-1}`},
		{"bad geometry", "/v1/evaluate", `{"flavor":"hvt","nr":65,"nc":16,"npre":4,"nwr":4}`},
		{"positive vssc", "/v1/evaluate", `{"flavor":"hvt","nr":64,"nc":16,"npre":4,"nwr":4,"vssc":0.1}`},
		// nr·nc beyond the capacity limit whose product wraps int64: to 0
		// (2^32·2^32 and 2^62·4) and negative (2·2^62).
		{"capacity product wraps to zero", "/v1/evaluate", `{"flavor":"hvt","nr":4294967296,"nc":4294967296,"npre":1,"nwr":1}`},
		{"capacity product wraps to zero with tall rows", "/v1/evaluate", `{"flavor":"hvt","nr":4611686018427387904,"nc":4,"npre":1,"nwr":1}`},
		{"capacity product wraps negative", "/v1/evaluate", `{"flavor":"hvt","nr":2,"nc":4611686018427387904,"npre":1,"nwr":1,"w":64}`},
		// Fin counts past the search space's maxima (N_pre 50, N_wr 20).
		{"npre above the search space", "/v1/evaluate", `{"flavor":"hvt","nr":64,"nc":64,"npre":51,"nwr":1}`},
		{"nwr above the search space", "/v1/evaluate", `{"flavor":"hvt","nr":64,"nc":64,"npre":1,"nwr":21}`},
		{"huge npre", "/v1/evaluate", `{"flavor":"hvt","nr":64,"nc":64,"npre":1000000000000000000,"nwr":1}`},
		{"huge nwr", "/v1/evaluate", `{"flavor":"hvt","nr":64,"nc":64,"npre":1,"nwr":1000000000000000000}`},
		{"batch line npre above the search space", "/v1/batch", `{"op":"evaluate","flavor":"hvt","nr":64,"nc":64,"npre":51,"nwr":1}`},
		{"yield n too small", "/v1/yield", `{"flavor":"hvt","n":1}`},
		{"yield n too large", "/v1/yield", fmt.Sprintf(`{"flavor":"hvt","n":%d}`, maxYieldSamples+1)},
		{"yield bad metric", "/v1/yield", `{"flavor":"hvt","n":16,"metrics":["snm"]}`},
		{"yield bad sampler", "/v1/yield", `{"flavor":"hvt","n":16,"sampler":"halton"}`},
		{"yield tilt too small", "/v1/yield", `{"flavor":"hvt","n":16,"tilt":0.5}`},
		{"yield tilt too large", "/v1/yield", `{"flavor":"hvt","n":16,"tilt":9}`},
		{"yield bad rel_ci", "/v1/yield", `{"flavor":"hvt","n":16,"rel_ci":1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := postJSON(t, ts.URL+tc.path, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, body %s, want 400", code, body)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("error body not structured JSON: %s", body)
			}
			if env.Error.Status != http.StatusBadRequest || env.Error.Message == "" {
				t.Errorf("bad envelope: %+v", env)
			}
		})
	}

	// The search space's maxima themselves are valid fin counts.
	if code, _, body := postJSON(t, ts.URL+"/v1/evaluate", `{"flavor":"hvt","nr":64,"nc":64,"npre":50,"nwr":20}`); code != http.StatusOK {
		t.Errorf("npre=50 nwr=20: status %d, body %s, want 200", code, body)
	}

	// Non-POST on a /v1/* endpoint.
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/optimize: status %d, want 405", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Cause some traffic so the serve counters exist with nonzero values.
	postJSON(t, ts.URL+"/v1/optimize", optimizeBody)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if _, ok := snap.Counters["serve.requests"]; !ok {
		t.Error("serve.requests missing from metrics snapshot")
	}

	promResp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	prom, _ := io.ReadAll(promResp.Body)
	if !strings.Contains(string(prom), "# TYPE serve_requests counter") {
		t.Errorf("prom rendering missing counter family:\n%.400s", prom)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
