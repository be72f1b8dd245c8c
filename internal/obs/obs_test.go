package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("a.gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	h := r.Histogram("a.hist")
	h.Observe(300 * time.Nanosecond) // second bucket (≤500ns)
	h.Observe(time.Millisecond)
	h.Observe(time.Hour) // overflow
	if h.Count() != 3 {
		t.Fatalf("hist count = %d, want 3", h.Count())
	}
	wantSum := 300*time.Nanosecond + time.Millisecond + time.Hour
	if h.Sum() != wantSum {
		t.Fatalf("hist sum = %v, want %v", h.Sum(), wantSum)
	}

	snap := r.Snapshot()
	if snap.Counters["a.count"] != 42 || snap.Gauges["a.gauge"] != 2.5 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	hs := snap.Histograms["a.hist"]
	if hs.Count != 3 || len(hs.Buckets) != 3 {
		t.Fatalf("hist snapshot = %+v, want 3 obs in 3 distinct buckets", hs)
	}
	// The overflow bucket has no upper bound.
	if hs.Buckets[len(hs.Buckets)-1].LeSec != 0 {
		t.Fatalf("overflow bucket should have LeSec 0, got %+v", hs.Buckets)
	}

	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("Reset did not zero metrics")
	}
}

func TestRegistryConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestStatsLine(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(3)
	r.Counter("y").Add(7)
	if got := r.StatsLine("x", "missing", "y"); got != "x=3 y=7" {
		t.Fatalf("StatsLine = %q", got)
	}
}

// TestJSONLSinkGolden locks the JSON-lines wire format: fixed events must
// serialize byte-for-byte identically.
func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 123456789, time.UTC)
	s.Emit(Event{
		Time: t0,
		Name: "core.search.chunk",
		Kind: KindSpan,
		Dur:  1500 * time.Microsecond,
		Attrs: []Attr{
			I64("nr", 256),
			F64("vssc", -0.12),
			I64("evaluated", 1000),
		},
	})
	s.Emit(Event{Time: t0.Add(time.Second), Name: "mc.sample", Kind: KindPoint,
		Attrs: []Attr{I64("i", 7), Str("state", "ok")}})
	s.Emit(Event{Time: t0.Add(2 * time.Second), Name: "bare", Kind: KindSpan, Dur: time.Nanosecond})

	const want = `{"ts":"2026-08-06T12:00:00.123456789Z","kind":"span","name":"core.search.chunk","dur_ns":1500000,"attrs":{"evaluated":1000,"nr":256,"vssc":-0.12}}
{"ts":"2026-08-06T12:00:01.123456789Z","kind":"point","name":"mc.sample","attrs":{"i":7,"state":"ok"}}
{"ts":"2026-08-06T12:00:02.123456789Z","kind":"span","name":"bare","dur_ns":1}
`
	if got := buf.String(); got != want {
		t.Fatalf("JSONL output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTextSinkSmoke(t *testing.T) {
	var buf bytes.Buffer
	s := NewTextSink(&buf)
	s.Emit(Event{Time: time.Now(), Name: "circuit.transient", Kind: KindSpan,
		Dur: time.Millisecond, Attrs: []Attr{I64("steps", 400)}})
	out := buf.String()
	for _, frag := range []string{"circuit.transient", "kind=span", "steps=400", "dur="} {
		if !strings.Contains(out, frag) {
			t.Fatalf("text sink output %q missing %q", out, frag)
		}
	}
}

func TestSpanThroughCollector(t *testing.T) {
	col := &CollectorSink{}
	prev := SetSink(col)
	defer SetSink(prev)

	sp := StartSpan("work")
	sp.Int("n", 5)
	sp.Float("x", 1.5)
	sp.Str("tag", "t")
	sp.End()
	PointCtx(context.Background(), "tick", I64("i", 1))

	evs := col.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Name != "work" || evs[0].Kind != KindSpan || len(evs[0].Attrs) != 3 {
		t.Fatalf("span event = %+v", evs[0])
	}
	if evs[0].Attrs[0].Value() != int64(5) || evs[0].Attrs[1].Value() != 1.5 || evs[0].Attrs[2].Value() != "t" {
		t.Fatalf("span attrs = %+v", evs[0].Attrs)
	}
	if evs[1].Name != "tick" || evs[1].Kind != KindPoint {
		t.Fatalf("point event = %+v", evs[1])
	}
}

// TestSpanAttrsDroppedCounted proves an annotation past maxSpanAttrs on a
// live span advances obs.span.attrs_dropped by one when the span ends, while
// the same overflow on a disabled span counts nothing.
func TestSpanAttrsDroppedCounted(t *testing.T) {
	dropped := func() int64 { return Default().CounterValue("obs.span.attrs_dropped") }
	prev := SetSink(nil)
	defer SetSink(prev)

	before := dropped()
	off := StartSpan("off")
	for i := 0; i <= maxSpanAttrs; i++ {
		off.Int("k", int64(i))
	}
	off.End()
	if got := dropped() - before; got != 0 {
		t.Fatalf("disabled span advanced attrs_dropped by %d, want 0", got)
	}

	col := &CollectorSink{}
	SetSink(col)
	sp := StartSpan("wide")
	for i := 0; i < maxSpanAttrs; i++ {
		sp.Int("k", int64(i))
	}
	if got := dropped() - before; got != 0 {
		t.Fatalf("a span at its cap advanced attrs_dropped by %d, want 0", got)
	}
	sp.Str("past_cap", "x")
	sp.End()
	if got := dropped() - before; got != 1 {
		t.Fatalf("one attribute past the cap advanced attrs_dropped by %d, want 1", got)
	}
	if evs := col.Events(); len(evs) != 1 || len(evs[0].Attrs) != maxSpanAttrs {
		t.Fatalf("events %+v, want one span with %d attrs", evs, maxSpanAttrs)
	}
}

func TestMultiSink(t *testing.T) {
	a, b := &CollectorSink{}, &CollectorSink{}
	m := MultiSink{a, b}
	m.Emit(Event{Name: "e", Kind: KindPoint})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("MultiSink did not fan out")
	}
}

// TestNoopZeroAllocs proves the disabled instrumentation path — exactly
// the sequence the solver hot loops execute — allocates nothing.
func TestNoopZeroAllocs(t *testing.T) {
	prev := SetSink(nil)
	defer SetSink(prev)
	c := NewCounter("obs_test.noop")
	h := NewHistogram("obs_test.noop_hist")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpan("hot")
		sp.Int("n", 1)
		sp.Float("x", 2)
		c.Add(3)
		h.Observe(time.Microsecond)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op instrumentation allocates %.1f per run, want 0", allocs)
	}
}

func TestSetSinkReturnsPrevious(t *testing.T) {
	a := &CollectorSink{}
	old := SetSink(a)
	defer SetSink(old)
	if !Enabled() || CurrentSink() != Sink(a) {
		t.Fatal("sink not installed")
	}
	if got := SetSink(nil); got != Sink(a) {
		t.Fatalf("SetSink(nil) returned %v, want the collector", got)
	}
	if Enabled() {
		t.Fatal("Enabled after SetSink(nil)")
	}
}

func TestProgressTicker(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	n := 0
	p := StartProgress(w, time.Millisecond, func() string {
		n++
		return "tick"
	})
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "tick") || !strings.HasSuffix(out, "tick\n") {
		t.Fatalf("progress output %q", out)
	}
	if n < 2 {
		t.Fatalf("render called %d times, want ≥ 2", n)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
