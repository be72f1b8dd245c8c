package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("optimize=6,evaluate=3,pareto=0,batch=1,yield=2,yieldstream=1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{opOptimize: 6, opEvaluate: 3, opPareto: 0, opBatch: 1, opYield: 2, opYieldStream: 1}
	for k, v := range want {
		if mix[k] != v {
			t.Errorf("mix[%s] = %d, want %d", k, mix[k], v)
		}
	}
	for _, bad := range []string{"optimize", "optimize=x", "optimize=-1", "frobnicate=1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q): want error", bad)
		}
	}
	// Spaces and empty entries are tolerated.
	if _, err := parseMix(" optimize=1 , ,evaluate=2"); err != nil {
		t.Errorf("parseMix with spaces: %v", err)
	}
}

// TestYieldOpsRouteToYieldEndpoint pins the new ops' paths and bodies: both
// hit /v1/yield, the streaming op with the ?stream=1 query, with JSON bodies
// drawn from non-empty pools.
func TestYieldOpsRouteToYieldEndpoint(t *testing.T) {
	if got := endpointPath(opYield); got != "/v1/yield" {
		t.Errorf("endpointPath(yield) = %q", got)
	}
	if got := endpointPath(opYieldStream); got != "/v1/yield?stream=1" {
		t.Errorf("endpointPath(yieldstream) = %q", got)
	}
	p := buildPools()
	rng := rand.New(rand.NewSource(1))
	for _, op := range []string{opYield, opYieldStream} {
		if body := p.body(op, rng); body == "" {
			t.Errorf("empty body pool for %s", op)
		}
	}
}

func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile(nil) = %v, want 0", q)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.5, 5}, {0.99, 9}, {1, 10}} {
		if got := quantile(sorted, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestWeightedPickRespectsZeroWeights(t *testing.T) {
	mix := map[string]int{opOptimize: 3, opEvaluate: 1, opPareto: 0, opBatch: 0}
	rng := rand.New(rand.NewSource(42))
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[weightedPick(mix, 4, rng)]++
	}
	if counts[opPareto] != 0 || counts[opBatch] != 0 {
		t.Errorf("zero-weight ops were picked: %v", counts)
	}
	if counts[opOptimize] == 0 || counts[opEvaluate] == 0 {
		t.Errorf("positive-weight op never picked: %v", counts)
	}
	// 3:1 ratio within loose bounds.
	ratio := float64(counts[opOptimize]) / float64(counts[opEvaluate])
	if ratio < 2 || ratio > 4.5 {
		t.Errorf("optimize:evaluate ratio = %.2f, want ~3", ratio)
	}
}

// TestRunLoadAgainstStub drives the full harness loop against a stub server:
// warmup traffic must be excluded, mixed outcomes must be counted, and the
// report arithmetic must hold together.
func TestRunLoadAgainstStub(t *testing.T) {
	var n atomic.Int64 // the stub's handlers run on concurrent connections
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/optimize", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})
	mux.HandleFunc("/v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		// Every third evaluate fails, so the error accounting is exercised.
		if n.Add(1)%3 == 0 {
			http.Error(w, `{"error":{}}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := runLoad(loadConfig{
		BaseURL:     ts.URL,
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		Warmup:      100 * time.Millisecond,
		Seed:        7,
		Mix:         map[string]int{opOptimize: 1, opEvaluate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if len(rep.Endpoints) != 2 {
		t.Fatalf("endpoints = %v, want optimize and evaluate only", rep.Endpoints)
	}
	ev := rep.Endpoints[opEvaluate]
	if ev.Status5xx == 0 || ev.Errors < ev.Status5xx {
		t.Errorf("evaluate errors not counted: %+v", ev)
	}
	opt := rep.Endpoints[opOptimize]
	if opt.Errors != 0 || opt.Status5xx != 0 {
		t.Errorf("optimize should be clean: %+v", opt)
	}
	if got := opt.Requests + ev.Requests; got != rep.Requests {
		t.Errorf("endpoint requests sum to %d, total says %d", got, rep.Requests)
	}
	if rep.Status5xx != ev.Status5xx || rep.Errors != ev.Errors {
		t.Errorf("totals %+v disagree with evaluate %+v", rep, ev)
	}
	if rep.Throughput <= 0 || rep.DurationS <= 0 {
		t.Errorf("throughput %.1f over %.2fs, want positive", rep.Throughput, rep.DurationS)
	}
	if opt.P50MS <= 0 || opt.P999MS < opt.P50MS {
		t.Errorf("quantiles out of order: %+v", opt)
	}
}

// TestRunLoadQPSPacing checks the token pacer bounds throughput near the
// target instead of running the closed loop flat out.
func TestRunLoadQPSPacing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	rep, err := runLoad(loadConfig{
		BaseURL:     ts.URL,
		Concurrency: 4,
		TargetQPS:   50,
		Duration:    500 * time.Millisecond,
		Seed:        1,
		Mix:         map[string]int{opOptimize: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unpaced, 4 workers against this stub do thousands of req/s; the pacer
	// should keep it within a few multiples of 50. Generous upper bound to
	// stay robust on slow CI.
	if rep.Throughput > 200 {
		t.Errorf("throughput %.1f req/s ignores the 50 QPS target", rep.Throughput)
	}
	if rep.Requests == 0 {
		t.Error("paced run recorded no requests")
	}
}

func TestRunLoadRejectsEmptyMix(t *testing.T) {
	if _, err := runLoad(loadConfig{Mix: map[string]int{}}); err == nil {
		t.Error("empty mix: want error")
	}
	if _, err := runLoad(loadConfig{Mix: map[string]int{opOptimize: -1}}); err == nil {
		t.Error("negative weight: want error")
	}
}
