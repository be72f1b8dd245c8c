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

// TestSearchTraceReconciles proves the invariants CLI traces rely on: the
// per-chunk span evaluation counts sum exactly to SearchStats.Evaluated,
// one chunk span is emitted per shard, and the run span reports the same
// total. The run span's units_prepared equals the core.search.units_prepared
// counter's advance; under full enumeration, which prepares every live unit
// in the bound pass and every settled one again in the sweep, it reconciles
// with the counts as units_prepared·N_pre·N_wr = 2·Evaluated − SkippedRails.
// Branch-and-bound prepares fewer units, and an 8-group search prepares and
// sweeps one mask per class: the paper technology's 256 masks fall into 94.
// The run span's bounds equals the core.search.bounds counter's advance;
// full enumeration bounds each live unit once, in the bound pass, so there
// bounds·N_pre·N_wr = Evaluated. No span drops an attribute past its cap,
// though the run span fills all ten slots.
func TestSearchTraceReconciles(t *testing.T) {
	f := paperFramework(t)
	space := SearchSpace{VSSCMin: -0.04, VSSCStep: 0.02, NRMax: 1024, NCMax: 1024, NpreMax: 4, NwrMax: 3}
	plain := Options{CapacityBits: 16 * 1024, Flavor: device.HVT, Method: M2, Space: space}
	hybrid := Options{CapacityBits: 16 * 1024, Flavor: device.LVT, Method: M2, HybridGroups: 8, Space: space}
	prepared := make(map[string]int64)
	for _, tc := range []struct {
		name    string
		opts    Options
		classes int64
	}{
		{"plain", plain, 1},
		{"plain-full", withFullEnumeration(plain), 1},
		{"hybrid8", hybrid, 94},
		{"hybrid8-full", withFullEnumeration(hybrid), 94},
	} {
		col := &obs.CollectorSink{}
		prev := obs.SetSink(col)
		before := obs.Default().CounterValue("core.search.units_prepared")
		bounds0 := searchBounds()
		dropped := obs.Default().CounterValue("obs.span.attrs_dropped")
		opt, err := f.Optimize(context.Background(), tc.opts)
		obs.SetSink(prev)
		if err != nil {
			t.Fatalf("%s: Optimize: %v", tc.name, err)
		}
		if got := obs.Default().CounterValue("obs.span.attrs_dropped") - dropped; got != 0 {
			t.Errorf("%s: spans dropped %d attributes past their cap", tc.name, got)
		}
		st := opt.Stats

		var chunkSpans int
		var chunkSum, runTotal, units, classes, bounds int64
		runSpans := 0
		for _, ev := range col.Events() {
			switch ev.Name {
			case "core.search.chunk":
				chunkSpans++
				chunkSum += attrInt(t, ev, "evaluated")
			case "core.search":
				runSpans++
				runTotal = attrInt(t, ev, "evaluated")
				units = attrInt(t, ev, "units_prepared")
				classes = attrInt(t, ev, "mask_classes")
				bounds = attrInt(t, ev, "bounds")
			}
		}
		if runSpans != 1 {
			t.Fatalf("%s: %d core.search run spans, want 1", tc.name, runSpans)
		}
		if chunkSpans != st.Chunks {
			t.Errorf("%s: %d chunk spans, want %d (one per shard)", tc.name, chunkSpans, st.Chunks)
		}
		if chunkSum != int64(st.Evaluated) {
			t.Errorf("%s: chunk span evaluations sum to %d, SearchStats.Evaluated = %d", tc.name, chunkSum, st.Evaluated)
		}
		if runTotal != int64(st.Evaluated) {
			t.Errorf("%s: run span reports %d evaluations, SearchStats.Evaluated = %d", tc.name, runTotal, st.Evaluated)
		}
		if got := obs.Default().CounterValue("core.search.units_prepared") - before; got != units {
			t.Errorf("%s: units_prepared counter advanced by %d, run span reports %d", tc.name, got, units)
		}
		if got := searchBounds() - bounds0; got != bounds {
			t.Errorf("%s: bounds counter advanced by %d, run span reports %d", tc.name, got, bounds)
		}
		if pts := int64(space.NpreMax * space.NwrMax); tc.opts.disableBounds && bounds*pts != int64(st.Evaluated) {
			t.Errorf("%s: %d bounds × %d points ≠ Evaluated (%d)", tc.name, bounds, pts, st.Evaluated)
		}
		if !tc.opts.disableBounds && bounds <= units {
			t.Errorf("%s: %d bounds for %d units prepared: the rows were never bounded", tc.name, bounds, units)
		}
		if classes != tc.classes {
			t.Errorf("%s: %d mask classes, want %d", tc.name, classes, tc.classes)
		}
		if pts := int64(space.NpreMax * space.NwrMax); tc.opts.disableBounds && units*pts != int64(2*st.Evaluated-st.SkippedRails) {
			t.Errorf("%s: %d units prepared × %d points ≠ 2·Evaluated (%d) − SkippedRails (%d)",
				tc.name, units, pts, st.Evaluated, st.SkippedRails)
		}
		prepared[tc.name] = units
	}
	for _, name := range []string{"plain", "hybrid8"} {
		if prepared[name] >= prepared[name+"-full"] {
			t.Errorf("%s: branch-and-bound prepared %d units, full enumeration %d", name, prepared[name], prepared[name+"-full"])
		}
	}
}

func withFullEnumeration(o Options) Options {
	o.disableBounds = true
	return o
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
