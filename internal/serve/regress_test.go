package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sramco"
)

// TestCoalescedFillSurvivesFirstCallersDeadline is the regression test for
// the fill-deadline bug: the fill used to inherit the first caller's
// requested deadline, so an impatient first caller poisoned the shared
// computation for every patient waiter coalesced behind it. Now the fill
// runs under the server cap only — the first caller times out alone, and a
// patient second caller coalesces onto the still-running fill and gets the
// result.
func TestCoalescedFillSurvivesFirstCallersDeadline(t *testing.T) {
	fw := framework(t)
	s := New(fw, Config{})
	gate := make(chan struct{})
	var searches atomic.Int64
	s.optimizeFn = func(ctx context.Context, opts sramco.Options) (*sramco.Optimum, error) {
		searches.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		return fw.Optimize(ctx, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	impatient := `{"capacity_bytes":128,"flavor":"hvt","timeout_ms":30}`
	type reply struct {
		code  int
		cache string
		body  []byte
		err   error
	}
	post := func(body string, ch chan<- reply) {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			ch <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		ch <- reply{code: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b, err: err}
	}

	first := make(chan reply, 1)
	go post(impatient, first)
	waitFor(t, "fill to start", func() bool { return searches.Load() == 1 })

	// The impatient caller must get its timeout while the fill keeps running.
	r1 := <-first
	if r1.err != nil {
		t.Fatalf("first caller: %v", r1.err)
	}
	if r1.code != http.StatusGatewayTimeout {
		t.Fatalf("first caller status %d body %s, want 504", r1.code, r1.body)
	}

	// A patient caller for the same search coalesces onto the orphaned fill.
	second := make(chan reply, 1)
	go post(optimizeBody, second)
	waitFor(t, "second caller to coalesce", func() bool { return s.flight.waiters() >= 1 })

	close(gate)
	r2 := <-second
	if r2.err != nil {
		t.Fatalf("second caller: %v", r2.err)
	}
	if r2.code != http.StatusOK || r2.cache != "coalesced" {
		t.Fatalf("second caller status %d X-Cache %q body %s, want 200/coalesced",
			r2.code, r2.cache, r2.body)
	}
	if searches.Load() != 1 {
		t.Errorf("searches = %d, want 1 (the second caller must not refill)", searches.Load())
	}
}

// TestInflightGaugeConsistentUnderConcurrency hammers admit/release from
// many goroutines and checks the published serve.inflight gauge lands back
// where it started. The pre-fix Set(counter.Add(±1)) pattern let two
// concurrent updates apply their Sets out of order, leaving a stale
// nonzero gauge behind.
func TestInflightGaugeConsistentUnderConcurrency(t *testing.T) {
	s := New(framework(t), Config{})
	before := gInflight.Value()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				release, err := s.admit()
				if err != nil {
					t.Error(err)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()
	if after := gInflight.Value(); after != before {
		t.Errorf("serve.inflight drifted from %g to %g across balanced admit/release", before, after)
	}
}

// TestInfeasibleCachedAsStructuredError is the regression test for the
// ErrInfeasible handling bug: an infeasible request used to fall through the
// generic error path uncached, re-running the search on every retry. It must
// come back as a structured 422 envelope and be cached like a success.
func TestInfeasibleCachedAsStructuredError(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 256 KB = 2^21 bits exceeds the largest array the search space holds
	// (NRMax·NCMax = 2^20 bits) while staying under the request size cap.
	infeasible := `{"capacity_bytes":262144,"flavor":"hvt"}`

	d := snapshotCounters("serve.cache.miss", "serve.cache.hit")
	code, hdr, body := postJSON(t, ts.URL+"/v1/optimize", infeasible)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d body %s, want 422", code, body)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("422 body is not a structured envelope: %v: %s", err, body)
	}
	if env.Error.Status != http.StatusUnprocessableEntity || env.Error.Message == "" {
		t.Errorf("envelope = %+v, want populated 422 error", env.Error)
	}

	code2, hdr2, body2 := postJSON(t, ts.URL+"/v1/optimize", infeasible)
	if code2 != http.StatusUnprocessableEntity || hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q, want 422/hit", code2, hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached 422 body differs from original")
	}
	if d.delta("serve.cache.miss") != 1 || d.delta("serve.cache.hit") != 1 {
		t.Errorf("cache.miss=%d cache.hit=%d, want 1/1 (infeasible result must be cached)",
			d.delta("serve.cache.miss"), d.delta("serve.cache.hit"))
	}
}
