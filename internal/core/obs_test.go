package core

import (
	"context"
	"testing"

	"sramco/internal/device"
	"sramco/internal/obs"
)

func attrInt(t *testing.T, ev obs.Event, key string) int64 {
	t.Helper()
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.I
		}
	}
	t.Fatalf("event %s missing attr %q", ev.Name, key)
	return 0
}

// TestSearchTraceReconciles proves the invariant CLI traces rely on: the
// per-chunk span evaluation counts sum exactly to SearchStats.Evaluated,
// one chunk span is emitted per shard, and the run span reports the same
// total.
func TestSearchTraceReconciles(t *testing.T) {
	f := paperFramework(t)
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)

	opt, err := f.Optimize(context.Background(), Options{
		CapacityBits: 16 * 1024,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.04, VSSCStep: 0.02, NRMax: 1024, NCMax: 1024, NpreMax: 4, NwrMax: 3},
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}

	var chunkSpans int
	var chunkSum, runTotal int64
	runSpans := 0
	for _, ev := range col.Events() {
		switch ev.Name {
		case "core.search.chunk":
			chunkSpans++
			chunkSum += attrInt(t, ev, "evaluated")
		case "core.search":
			runSpans++
			runTotal = attrInt(t, ev, "evaluated")
		}
	}
	if runSpans != 1 {
		t.Fatalf("%d core.search run spans, want 1", runSpans)
	}
	if chunkSpans != opt.Stats.Chunks {
		t.Errorf("%d chunk spans, want %d (one per shard)", chunkSpans, opt.Stats.Chunks)
	}
	if chunkSum != int64(opt.Stats.Evaluated) {
		t.Errorf("chunk span evaluations sum to %d, SearchStats.Evaluated = %d", chunkSum, opt.Stats.Evaluated)
	}
	if runTotal != int64(opt.Stats.Evaluated) {
		t.Errorf("run span reports %d evaluations, SearchStats.Evaluated = %d", runTotal, opt.Stats.Evaluated)
	}
}

// TestSearchCounterMatchesStats proves the live core.search.evaluated
// counter advances by exactly the deterministic SearchStats total.
func TestSearchCounterMatchesStats(t *testing.T) {
	f := paperFramework(t)
	reg := obs.Default()
	before := reg.CounterValue("core.search.evaluated")
	opt, err := f.Optimize(context.Background(), Options{
		CapacityBits: 4096,
		Flavor:       device.LVT,
		Method:       M1,
		Space:        SearchSpace{VSSCMin: -0.02, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 3, NwrMax: 2},
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if got := reg.CounterValue("core.search.evaluated") - before; got != int64(opt.Stats.Evaluated) {
		t.Errorf("counter advanced by %d, SearchStats.Evaluated = %d", got, opt.Stats.Evaluated)
	}
}
