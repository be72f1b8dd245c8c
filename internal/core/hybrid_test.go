package core

import (
	"context"
	"reflect"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
)

// stripEnv zeroes the environmental (non-deterministic) stats fields so two
// runs of the same search can be compared with reflect.DeepEqual.
func stripEnv(s SearchStats) SearchStats {
	s.Wall = 0
	s.Workers = 0
	s.Chunks = 0
	return s
}

// TestHybridDegenerateParity is the bit-identity gate of the hybrid
// tentpole: HybridGroups = 1 (a single row group, explicitly degenerate)
// must reproduce the plain single-flavor search exactly — same optimum
// design, every Result field bit-identical, and the same search accounting —
// across both wordline architectures, both energy accountings, both flavors
// and the scalar objectives. The per-group machinery (mask enumeration,
// per-group read currents, hybrid bitline delay) must collapse to exact
// no-ops, not merely close approximations.
func TestHybridDegenerateParity(t *testing.T) {
	accountings := []struct {
		name string
		fw   *Framework
	}{
		{"worstcase", paperFramework(t)}, // zero FrameworkOpts → WorstCasePath
	}
	allCols, err := NewFramework(TechPaper, FrameworkOpts{Accounting: array.AllColumns})
	if err != nil {
		t.Fatal(err)
	}
	accountings = append(accountings, struct {
		name string
		fw   *Framework
	}{"allcolumns", allCols})

	for _, acc := range accountings {
		for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
			for _, segs := range []bool{false, true} {
				for _, objName := range []string{"edp", "delay", "energy"} {
					obj, ok := ObjectiveByName(objName)
					if !ok {
						t.Fatalf("unknown objective %q", objName)
					}
					opts := Options{
						CapacityBits: 4 * 1024 * 8,
						Flavor:       flavor,
						Method:       M2,
						Objective:    obj,
						SearchWLSegs: segs,
					}
					plain, err := acc.fw.Optimize(context.Background(), opts)
					if err != nil {
						t.Fatalf("%s %v segs=%v %s plain: %v", acc.name, flavor, segs, objName, err)
					}
					hyb := opts
					hyb.HybridGroups = 1
					degen, err := acc.fw.Optimize(context.Background(), hyb)
					if err != nil {
						t.Fatalf("%s %v segs=%v %s groups=1: %v", acc.name, flavor, segs, objName, err)
					}
					if !reflect.DeepEqual(degen.Best, plain.Best) {
						t.Errorf("%s %v segs=%v %s: groups=1 optimum diverges from plain search:\nhybrid %+v\nplain  %+v",
							acc.name, flavor, segs, objName, degen.Best, plain.Best)
					}
					if got, want := stripEnv(degen.Stats), stripEnv(plain.Stats); got != want {
						t.Errorf("%s %v segs=%v %s: groups=1 stats diverge:\nhybrid %+v\nplain  %+v",
							acc.name, flavor, segs, objName, got, want)
					}
				}
			}
		}
	}
}

// TestHybridDegenerateParityPareto extends the degenerate gate to the
// frontier search: a one-group hybrid sweep must return a bit-identical
// Pareto front to the plain search.
func TestHybridDegenerateParityPareto(t *testing.T) {
	f := paperFramework(t)
	for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
		opts := Options{CapacityBits: 4 * 1024 * 8, Flavor: flavor, Method: M2}
		plain, err := f.Pareto(context.Background(), opts)
		if err != nil {
			t.Fatalf("%v plain: %v", flavor, err)
		}
		hyb := opts
		hyb.HybridGroups = 1
		degen, err := f.Pareto(context.Background(), hyb)
		if err != nil {
			t.Fatalf("%v groups=1: %v", flavor, err)
		}
		if !reflect.DeepEqual(degen.Front, plain.Front) {
			t.Errorf("%v: groups=1 Pareto front diverges from plain search (%d vs %d points)",
				flavor, len(degen.Front), len(plain.Front))
		}
		if got, want := stripEnv(degen.Stats), stripEnv(plain.Stats); got != want {
			t.Errorf("%v: groups=1 Pareto stats diverge:\nhybrid %+v\nplain  %+v", flavor, got, want)
		}
	}
}

// TestBranchAndBoundParityHybrid is the pruning-correctness gate over the
// enlarged (group-assignment × mux) space: branch-and-bound must return the
// exact DesignPoint full enumeration finds, while the accounting identity
//
//	Evaluated + SkippedRSNM + PrunedBound == levels × validCombosPerLevel
//
// holds over the hybrid candidate space (one unit per mask spec per mux
// ratio per segmentation).
func TestBranchAndBoundParityHybrid(t *testing.T) {
	f := paperFramework(t)
	padp, _ := ObjectiveByName("padp")
	for _, tc := range []struct {
		kb     int
		flavor device.Flavor
		method Method
		groups int
		muxMax int
		obj    Objective
		name   string
	}{
		{2, device.LVT, M2, 4, 4, padp, "2KB-lvt-m2-g4-mux4-padp"},
		{4, device.HVT, M1, 2, 2, ObjectiveEDP, "4KB-hvt-m1-g2-mux2-edp"},
		{1, device.LVT, M2, 8, 0, ObjectiveEDP, "1KB-lvt-m2-g8-edp"},
	} {
		sp := DefaultSpace()
		sp.MuxMax = tc.muxMax
		opts := Options{
			CapacityBits: tc.kb * 1024 * 8,
			Flavor:       tc.flavor,
			Method:       tc.method,
			Objective:    tc.obj,
			HybridGroups: tc.groups,
			Space:        sp,
		}
		pruned, err := f.Optimize(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s pruned: %v", tc.name, err)
		}
		full := opts
		full.disableBounds = true
		ref, err := f.Optimize(context.Background(), full)
		if err != nil {
			t.Fatalf("%s full: %v", tc.name, err)
		}
		if !reflect.DeepEqual(pruned.Best, ref.Best) {
			t.Errorf("%s: pruned optimum diverges from full enumeration:\npruned %+v\nfull   %+v",
				tc.name, pruned.Best, ref.Best)
		}

		normOpts := opts
		if err := normOpts.normalize(); err != nil {
			t.Fatal(err)
		}
		rows := rowCandidates(normOpts.CapacityBits, normOpts.Space)
		levels := len(vsscCandidates(normOpts.Method, normOpts.Space))
		valid := validCombosPerLevel(&normOpts, rows)
		st := pruned.Stats
		if got, want := st.Evaluated+st.SkippedRSNM+st.PrunedBound, levels*valid; got != want {
			t.Errorf("%s: Evaluated (%d) + SkippedRSNM (%d) + PrunedBound (%d) = %d, want %d",
				tc.name, st.Evaluated, st.SkippedRSNM, st.PrunedBound, got, want)
		}
		if st.PrunedBound == 0 {
			t.Errorf("%s: bound pruned nothing", tc.name)
		}
		if st.SkippedRails != 0 {
			t.Errorf("%s: bounded search evaluated %d rail-infeasible points", tc.name, st.SkippedRails)
		}
		if ref.Stats.PrunedBound != 0 {
			t.Errorf("%s: disableBounds still pruned %d points", tc.name, ref.Stats.PrunedBound)
		}
		// Full enumeration covers the identical candidate space.
		rst := ref.Stats
		if got, want := rst.Evaluated+rst.SkippedRSNM, levels*valid; got != want {
			t.Errorf("%s: full enumeration Evaluated (%d) + SkippedRSNM (%d) = %d, want %d",
				tc.name, rst.Evaluated, rst.SkippedRSNM, got, want)
		}
	}
}

// TestBranchAndBoundParityHybridPareto pins the frontier search over the
// hybrid space: bounded and full sweeps must agree point-for-point and the
// bounded accounting must reconcile with the enumerated space.
func TestBranchAndBoundParityHybridPareto(t *testing.T) {
	f := paperFramework(t)
	sp := DefaultSpace()
	sp.MuxMax = 2
	opts := Options{
		CapacityBits: 2 * 1024 * 8,
		Flavor:       device.LVT,
		Method:       M2,
		HybridGroups: 2,
		Space:        sp,
	}
	pruned, err := f.Pareto(context.Background(), opts)
	if err != nil {
		t.Fatalf("pruned: %v", err)
	}
	full := opts
	full.disableBounds = true
	ref, err := f.Pareto(context.Background(), full)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if !reflect.DeepEqual(pruned.Front, ref.Front) {
		t.Fatalf("pruned front (%d points) diverges from full enumeration (%d points)",
			len(pruned.Front), len(ref.Front))
	}
	st := pruned.Stats
	if got, want := st.Evaluated+st.SkippedRSNM+st.PrunedBound, ref.Stats.Evaluated+ref.Stats.SkippedRSNM; got != want {
		t.Errorf("bounded space (%d) does not reconcile with full enumeration (%d)", got, want)
	}
}

// TestHybridNeverWorseThanPure pins the dominance property that makes the
// hybrid dimension sound: the all-base mask and the all-alternate mask are
// members of the hybrid candidate space, so the hybrid optimum can never be
// worse than the better of the two pure-flavor optima under the same
// search space.
func TestHybridNeverWorseThanPure(t *testing.T) {
	f := paperFramework(t)
	for _, objName := range []string{"edp", "padp"} {
		obj, _ := ObjectiveByName(objName)
		for _, groups := range []int{2, 8} {
			base := Options{
				CapacityBits: 4 * 1024 * 8,
				Flavor:       device.LVT,
				Method:       M2,
				Objective:    obj,
			}
			lvt, err := f.Optimize(context.Background(), base)
			if err != nil {
				t.Fatalf("%s pure LVT: %v", objName, err)
			}
			hvtOpts := base
			hvtOpts.Flavor = device.HVT
			hvt, err := f.Optimize(context.Background(), hvtOpts)
			if err != nil {
				t.Fatalf("%s pure HVT: %v", objName, err)
			}
			hybOpts := base
			hybOpts.HybridGroups = groups
			hyb, err := f.Optimize(context.Background(), hybOpts)
			if err != nil {
				t.Fatalf("%s groups=%d: %v", objName, groups, err)
			}
			bestPure := obj.Of(lvt.Best.Result)
			if v := obj.Of(hvt.Best.Result); v < bestPure {
				bestPure = v
			}
			if got := obj.Of(hyb.Best.Result); got > bestPure {
				t.Errorf("%s groups=%d: hybrid optimum %g worse than best pure optimum %g",
					objName, groups, got, bestPure)
			}
		}
	}
}

// TestHybridRejectsUnsupportedModes pins the guard rails: greedy search and
// sensitivity analysis evaluate under a single-flavor cell model and must
// refuse hybrid inputs instead of silently mis-evaluating them.
func TestHybridRejectsUnsupportedModes(t *testing.T) {
	f := paperFramework(t)
	if _, err := f.Optimize(context.Background(), Options{CapacityBits: 1024, Flavor: device.LVT, Method: M2, HybridGroups: 3}); err == nil {
		t.Error("HybridGroups=3 (not a power of two) accepted")
	}
	if _, err := f.Optimize(context.Background(), Options{CapacityBits: 1024, Flavor: device.LVT, Method: M2, HybridGroups: 16}); err == nil {
		t.Error("HybridGroups=16 (> array.MaxGroups) accepted")
	}
	if _, err := f.GreedyOptimize(context.Background(), Options{CapacityBits: 1024, Flavor: device.LVT, Method: M2, HybridGroups: 2}); err == nil {
		t.Error("greedy search accepted a hybrid configuration")
	}
	opt, err := f.Optimize(context.Background(), Options{CapacityBits: 1024, Flavor: device.LVT, Method: M2, HybridGroups: 2})
	if err != nil {
		t.Fatalf("hybrid optimize: %v", err)
	}
	if _, err := f.SensitivityAt(Options{CapacityBits: 1024, Flavor: device.LVT, Method: M2}, opt.Best); err == nil {
		t.Error("sensitivity analysis accepted a hybrid design point")
	}
}

// TestHybridSearchAllocsDoNotScaleWithUnits guards the clone-free bound
// pass: the bound pass keeps one fixed-size record per unit and prepares
// every unit on a per-worker Evaluator, so an 8-group hybrid search — 64×
// the units of a 2-group one — may allocate at most twice as often. A
// per-unit allocation (an Evaluator clone, a prepared-state copy) creeping
// back into the loop breaks the ratio.
func TestHybridSearchAllocsDoNotScaleWithUnits(t *testing.T) {
	f := paperFramework(t)
	padp, _ := ObjectiveByName("padp")
	sp := DefaultSpace()
	sp.MuxMax = 4
	allocs := func(groups int) float64 {
		opts := Options{CapacityBits: 16 * 1024 * 8, Flavor: device.LVT, Method: M2,
			Objective: padp, HybridGroups: groups, Space: sp}
		return testing.AllocsPerRun(2, func() {
			if _, err := f.Optimize(context.Background(), opts); err != nil {
				t.Fatalf("groups=%d: %v", groups, err)
			}
		})
	}
	a2, a8 := allocs(2), allocs(8)
	t.Logf("allocations per search: 2 groups %.0f, 8 groups %.0f", a2, a8)
	if a8 > 2*a2 {
		t.Errorf("8-group hybrid search allocates %.0f times, more than twice the 2-group search's %.0f", a8, a2)
	}
}

// TestHybridSearchAllocatesUnderBound pins the bytes one 8-group hybrid
// search allocates, with BenchmarkHybridSearch16KB's options (~1 MB): the
// bound pass keeps a record only of the units the sweep can sweep or
// prune on a bound, all in one allocation, and counts the others. A record
// of every (segmentation, mux, mask) unit, most of them equivalent masks
// the sweep only counts, took 2.5 MB and fails the pin.
func TestHybridSearchAllocatesUnderBound(t *testing.T) {
	f := paperFramework(t)
	padp, _ := ObjectiveByName("padp")
	sp := DefaultSpace()
	sp.MuxMax = 4
	opts := Options{CapacityBits: 16 * 1024 * 8, Flavor: device.LVT, Method: M2,
		Objective: padp, HybridGroups: 8, Space: sp}
	var err error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && err == nil; i++ {
			_, err = f.Optimize(context.Background(), opts)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 1_500_000
	if got := res.AllocedBytesPerOp(); got >= limit {
		t.Errorf("8-group 16 KB hybrid search: %d B/op, want under %d", got, limit)
	}
	t.Logf("8-group 16 KB hybrid search: %d B/op over %d searches", res.AllocedBytesPerOp(), res.N)
}
