package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
	"sramco/internal/obs"
	"sramco/internal/wire"
)

// searchBounds reads the core.search.bounds counter.
func searchBounds() int64 { return obs.Default().CounterValue("core.search.bounds") }

func wireGeom(nr, nc, segs, npre, nwr int) wire.Geometry {
	return wire.Geometry{NR: nr, NC: nc, W: 64, Npre: npre, Nwr: nwr, WLSegs: segs}
}

// normalizeOptimum zeroes the environmental stats fields (wall time, worker
// count) so the rest of the Optimum can be compared bit-for-bit.
func normalizeOptimum(o *Optimum) Optimum {
	n := *o
	n.Stats.Wall = 0
	n.Stats.Workers = 0
	return n
}

// TestOptimizeDeterministicAcrossGOMAXPROCS is the acceptance gate for the
// deterministic reduction: the 4 KB HVT/M2 search, plain and hybrid with
// muxing (whose workers share rail stages carrying both flavors), must
// return a bit-identical Optimum — design, result and counts — for any
// worker count, and across repeated runs, and compute the same number of
// bounds. The 8-group search also sweeps one mask per equivalence class
// (DESIGN.md §13.7).
func TestOptimizeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	f := paperFramework(t)
	hybrid := Options{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: M2, HybridGroups: 4,
		Space: DefaultSpace()}
	hybrid.Space.MuxMax = 2
	hybrid8 := hybrid
	hybrid8.Flavor, hybrid8.HybridGroups = device.LVT, 8
	for _, opts := range []Options{{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: M2}, hybrid, hybrid8} {
		var ref Optimum
		var refBounds int64
		for i, procs := range []int{1, 2, 8, 8} {
			prev := runtime.GOMAXPROCS(procs)
			bounds := searchBounds()
			opt, err := f.Optimize(context.Background(), opts)
			bounds = searchBounds() - bounds
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("groups=%d GOMAXPROCS=%d: %v", opts.HybridGroups, procs, err)
			}
			got := normalizeOptimum(opt)
			if i == 0 {
				ref, refBounds = got, bounds
				continue
			}
			if bounds != refBounds {
				t.Errorf("groups=%d GOMAXPROCS=%d run %d: %d bounds, %d at GOMAXPROCS=1", opts.HybridGroups, procs, i, bounds, refBounds)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("groups=%d GOMAXPROCS=%d run %d: Optimum differs from GOMAXPROCS=1 baseline:\n  base %+v\n  got  %+v",
					opts.HybridGroups, procs, i, ref.Best.Design, got.Best.Design)
			}
		}
	}
}

// TestResultsBuiltAtUnitEndMatchFreshEvaluations checks the Results a search
// builds at the end of each unit, by position, against the per-point model:
// Optimize's Best.Result and every Pareto front member's Result must equal
// array.EvaluateHybrid of its Design field by field. A Result built from
// the wrong unit or position still evaluates its own design, so the test
// also holds each Result to what the walker tracked: the optimum's Design
// is the one the incumbent recorded when it won, and every member of every
// worker front must carry the position it entered at and the delay and
// energy its lanes recorded from the sweep. The spaces are the default one,
// past the oracle's point budget: 1–64 KB under M1 and M2, wordline
// segmentation, mux 4 (also fully enumerated, which prepares every unit of
// a chunk after the incumbent's), 2- and 8-group hybrids and every built-in
// objective, each at GOMAXPROCS 1 and 4. The front ignores the objective,
// so only the EDP cases run Pareto.
func TestResultsBuiltAtUnitEndMatchFreshEvaluations(t *testing.T) {
	f := paperFramework(t)
	const kb = 1024 * 8
	mux4 := DefaultSpace()
	mux4.MuxMax = 4
	var cases []Options
	for _, bits := range []int{1 * kb, 4 * kb, 16 * kb, 64 * kb} {
		for _, m := range []Method{M1, M2} {
			cases = append(cases, Options{CapacityBits: bits, Flavor: device.HVT, Method: m})
		}
	}
	cases = append(cases,
		Options{CapacityBits: 16 * kb, Flavor: device.HVT, Method: M2, SearchWLSegs: true},
		Options{CapacityBits: 4 * kb, Flavor: device.LVT, Method: M2, Space: mux4},
		Options{CapacityBits: 4 * kb, Flavor: device.LVT, Method: M2, Space: mux4, disableBounds: true},
		Options{CapacityBits: 4 * kb, Flavor: device.LVT, Method: M2, HybridGroups: 2},
		Options{CapacityBits: 1 * kb, Flavor: device.LVT, Method: M2, HybridGroups: 8})
	for _, name := range []string{"delay", "energy", "area", "padp"} {
		obj, _ := ObjectiveByName(name)
		cases = append(cases, Options{CapacityBits: 4 * kb, Flavor: device.HVT, Method: M2, Objective: obj})
	}
	for _, opts := range cases {
		tech, err := f.ArrayTech(opts.Flavor)
		if err != nil {
			t.Fatal(err)
		}
		alt, err := f.HybridAltTerms(opts.Flavor)
		if err != nil {
			t.Fatal(err)
		}
		norm := opts
		if err := norm.normalize(); err != nil {
			t.Fatal(err)
		}
		check := func(what string, d array.Design, res *array.Result) {
			t.Helper()
			fresh, err := array.EvaluateHybrid(tech, d, norm.Activity, alt)
			if err != nil {
				t.Fatalf("%s: evaluating %+v: %v", what, d, err)
			}
			if !reflect.DeepEqual(res, fresh) {
				t.Errorf("%s: Result built at unit end differs from a fresh evaluation of %+v:\n  built %+v\n  fresh %+v",
					what, d, *res, *fresh)
			}
		}
		for _, procs := range []int{1, 4} {
			name := fmt.Sprintf("%s full=%v GOMAXPROCS=%d", describeOptions(opts), opts.disableBounds, procs)
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				opt, err := f.Optimize(context.Background(), opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check(name+" optimum", opt.Best.Design, opt.Best.Result)
				if opts.Objective != nil {
					return
				}
				front, err := f.Pareto(context.Background(), opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, p := range front.Front {
					check(fmt.Sprintf("%s front member %d of %d", name, i, len(front.Front)), p.Design, p.Result)
				}
				s, err := f.newSearch(context.Background(), opts, true)
				if err != nil {
					t.Fatal(err)
				}
				slots, _, err := s.walk()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				members := 0
				for w := range slots {
					wf := &slots[w].front
					for i, m := range wf.pts {
						g := m.res.Design.Geom
						if g.Npre != int(m.npre) || g.Nwr != int(m.nwr) || m.res.DArray != wf.d[i] || m.res.EArray != wf.e[i] {
							t.Errorf("%s: worker %d member %d entered at N_pre=%d N_wr=%d with D=%g E=%g; its Result is N_pre=%d N_wr=%d D=%g E=%g",
								name, w, i, m.npre, m.nwr, wf.d[i], wf.e[i], g.Npre, g.Nwr, m.res.DArray, m.res.EArray)
						}
					}
					members += len(wf.pts)
				}
				t.Logf("%s: optimum, %d front members, %d worker-front members", name, len(front.Front), members)
			}()
		}
	}
}

// TestOptimizeTieBreakOnObjectiveTies forces every feasible point to tie and
// checks the winner is schedule-independent.
func TestOptimizeTieBreakOnObjectiveTies(t *testing.T) {
	f := paperFramework(t)
	opts := Options{
		CapacityBits: 4096,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.04, VSSCStep: 0.02, NRMax: 1024, NCMax: 1024, NpreMax: 4, NwrMax: 3},
		Objective:    func(*array.Result) float64 { return 1 },
	}
	var ref Optimum
	for i, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		opt, err := f.Optimize(context.Background(), opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		got := normalizeOptimum(opt)
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("all-ties search is schedule-dependent: %+v vs %+v", ref.Best.Design, got.Best.Design)
		}
	}
	// With every objective equal, no feasible design may precede the winner
	// in the canonical order within its own (row, VSSC) block.
	d := ref.Best.Design
	if d.Geom.Npre != 1 || d.Geom.Nwr != 1 {
		// Npre/Nwr do not affect feasibility gates ahead of evaluation, so
		// the canonical minimum of a tied block always has 1/1 fins.
		t.Errorf("tie-break winner has N_pre=%d N_wr=%d, want the canonical 1/1", d.Geom.Npre, d.Geom.Nwr)
	}
}

func TestBetterPointTotalOrder(t *testing.T) {
	mk := func(nr, nc, segs, npre, nwr int, vssc float64) array.Design {
		return array.Design{Geom: wireGeom(nr, nc, segs, npre, nwr), VSSC: vssc}
	}
	// better reports whether (aObj, a) beats the incumbent (bObj, b).
	better := func(a array.Design, aObj float64, b array.Design, bObj float64) bool {
		in := incumbent{obj: bObj, design: b, ok: true}
		return in.beats(aObj, a)
	}
	a := mk(32, 1024, 1, 1, 1, 0)
	b := mk(64, 512, 1, 1, 1, 0)
	if !better(a, 1, b, 2) {
		t.Error("lower objective must win regardless of design order")
	}
	if better(b, 2, a, 1) {
		t.Error("higher objective must lose")
	}
	// Ties: fewer rows first.
	if !better(a, 1, b, 1) || better(b, 1, a, 1) {
		t.Error("tie must prefer fewer rows")
	}
	// Ties at equal rows: weaker (less negative) VSSC first.
	c := mk(32, 1024, 1, 1, 1, -0.05)
	if !better(a, 1, c, 1) || better(c, 1, a, 1) {
		t.Error("tie must prefer the weaker VSSC assist")
	}
	// Then fewer segments, fewer Npre, fewer Nwr.
	for _, pair := range [][2]array.Design{
		{mk(32, 1024, 1, 5, 5, 0), mk(32, 1024, 2, 1, 1, 0)},
		{mk(32, 1024, 1, 1, 9, 0), mk(32, 1024, 1, 2, 1, 0)},
		{mk(32, 1024, 1, 1, 1, 0), mk(32, 1024, 1, 1, 2, 0)},
	} {
		if !better(pair[0], 1, pair[1], 1) || better(pair[1], 1, pair[0], 1) {
			t.Errorf("tie order violated for %+v vs %+v", pair[0].Geom, pair[1].Geom)
		}
		if !designLess(pair[0], pair[1]) || designLess(pair[1], pair[0]) {
			t.Errorf("designLess not a strict order for %+v vs %+v", pair[0].Geom, pair[1].Geom)
		}
	}
	// An equal design at an equal objective does not win: the fold keeps
	// the first of two identical points.
	if better(a, 1, a, 1) {
		t.Error("an identical point must not beat the incumbent")
	}
	// An empty incumbent loses to any point, even an infinite or NaN one.
	var empty incumbent
	if !empty.beats(math.Inf(1), a) || !empty.beats(math.NaN(), a) {
		t.Error("the first candidate must beat the empty incumbent")
	}
}

// TestOptimizeErrorCancelsWithAccurateCounts cancels the search from inside
// a custom objective at its 50th call and checks the search aborts with the
// cause and with Evaluated equal to the number of points the objective
// actually saw — including those of workers that were cancelled rather than
// cancelling themselves.
func TestOptimizeErrorCancelsWithAccurateCounts(t *testing.T) {
	f := paperFramework(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	opts := Options{
		CapacityBits: 4 * 1024 * 8,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.240, VSSCStep: 0.010, NRMax: 1024, NCMax: 1024, NpreMax: 10, NwrMax: 10},
		Objective: func(r *array.Result) float64 {
			if calls.Add(1) == 50 {
				cancel()
			}
			return r.EDP
		},
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	_, err := f.Optimize(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Optimize error = %v, want context.Canceled", err)
	}
	var serr *SearchError
	if !errors.As(err, &serr) {
		t.Fatalf("Optimize error %T does not carry SearchStats", err)
	}
	if got, want := serr.Stats.Evaluated, int(calls.Load()); got != want {
		t.Errorf("aborted search reports %d evaluations, the objective saw %d", got, want)
	}
	full := 6 * 25 * 10 * 10 // rows × VSSC levels × Npre × Nwr
	if serr.Stats.Evaluated >= full {
		t.Errorf("search ran to completion (%d evals) despite the cancellation", serr.Stats.Evaluated)
	}
}

func TestOptimizePreCancelledContext(t *testing.T) {
	f := paperFramework(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.Optimize(ctx, Options{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: M2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	var serr *SearchError
	if !errors.As(err, &serr) {
		t.Fatalf("error %T does not carry SearchStats", err)
	}
	if serr.Stats.Evaluated != 0 {
		t.Errorf("pre-cancelled search still evaluated %d points", serr.Stats.Evaluated)
	}
}

// TestGreedyPropagatesModelError: a model bug must surface as an error, not
// masquerade as an infeasible search space — in every searcher, and in
// SensitivityAt, whose point at VSSC = -0.1 V has its down V_SSC neighbor
// below. The HVT read current collapses to zero below VSSC = -0.1 V, which
// Prepare rejects.
func TestGreedyPropagatesModelError(t *testing.T) {
	f := hvtVariant(t, func(hvt *CellChar) {
		iRead := hvt.IRead
		hvt.IRead = func(vddc, vssc float64) float64 {
			if vssc < -0.1 {
				return 0
			}
			return iRead(vddc, vssc)
		}
	})
	opts := Options{CapacityBits: 8192, Flavor: device.HVT, Method: M2}
	full := opts
	full.disableBounds = true
	searches := map[string]func() error{
		"bounded": func() error { _, err := f.Optimize(context.Background(), opts); return err },
		"full":    func() error { _, err := f.Optimize(context.Background(), full); return err },
		"pareto":  func() error { _, err := f.Pareto(context.Background(), opts); return err },
		"greedy":  func() error { _, err := f.GreedyOptimize(context.Background(), opts); return err },
		"sensitivity": func() error {
			opt, err := paperFramework(t).Optimize(context.Background(), opts)
			if err != nil {
				return err
			}
			tech, err := f.ArrayTech(device.HVT)
			if err != nil {
				return err
			}
			d := opt.Best.Design
			d.VSSC = vsscCandidates(M2, DefaultSpace())[10] // -0.1 V
			r, err := array.Evaluate(tech, d, array.Activity{Alpha: DefaultAlpha, Beta: DefaultBeta})
			if err != nil {
				return err
			}
			_, err = f.SensitivityAt(opts, DesignPoint{Design: d, Result: r})
			return err
		},
	}
	for name, search := range searches {
		err := search()
		if err == nil || !strings.Contains(err.Error(), "non-positive read current") {
			t.Errorf("%s: error = %v, want the model's non-positive read current", name, err)
		}
		if errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: model error misreported as an infeasible search space", name)
		}
		var serr *SearchError
		if !errors.As(err, &serr) {
			t.Errorf("%s: error %T does not carry SearchStats", name, err)
		}
	}
}

// TestInfeasibleSpaceIsClassified: when every point fails a constraint, both
// searchers report ErrInfeasible (so bank sweeps can skip the partitioning)
// rather than a generic error.
func TestInfeasibleSpaceIsClassified(t *testing.T) {
	f := pruningFramework(t, 1) // every VSSC level fails read stability
	opts := Options{
		CapacityBits: 4096,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.02, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 2, NwrMax: 2},
	}
	if _, err := f.Optimize(context.Background(), opts); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Optimize error = %v, want ErrInfeasible", err)
	}
	if _, err := f.GreedyOptimize(context.Background(), opts); !errors.Is(err, ErrInfeasible) {
		t.Errorf("GreedyOptimize error = %v, want ErrInfeasible", err)
	}
}

// TestGreedyHonorsSearchWLSegs: the greedy searcher must explore the same
// divided-wordline axis as the exhaustive one when SearchWLSegs is set, and
// stay flat otherwise.
func TestGreedyHonorsSearchWLSegs(t *testing.T) {
	f := paperFramework(t)
	for _, dwl := range []bool{false, true} {
		maxSegs := 0
		opts := Options{
			CapacityBits: 32768,
			Flavor:       device.HVT,
			Method:       M2,
			W:            8,
			Space:        SearchSpace{VSSCMin: -0.02, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 5, NwrMax: 5},
			SearchWLSegs: dwl,
			Objective: func(r *array.Result) float64 {
				if s := r.Design.Geom.Segments(); s > maxSegs {
					maxSegs = s
				}
				return r.EDP
			},
		}
		if _, err := f.GreedyOptimize(context.Background(), opts); err != nil {
			t.Fatalf("SearchWLSegs=%v: %v", dwl, err)
		}
		if dwl && maxSegs < 2 {
			t.Errorf("SearchWLSegs=true but greedy never evaluated a divided wordline (max segments %d)", maxSegs)
		}
		if !dwl && maxSegs > 1 {
			t.Errorf("SearchWLSegs=false but greedy evaluated %d-segment wordlines", maxSegs)
		}
	}
}

// TestOptimizeShardsFinerThanRows: the work must be sharded on (row × VSSC)
// chunks, not row candidates alone, so parallelism is not capped by the
// handful of feasible organizations.
func TestOptimizeShardsFinerThanRows(t *testing.T) {
	f := paperFramework(t)
	opts := Options{
		CapacityBits: 4 * 1024 * 8,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.240, VSSCStep: 0.010, NRMax: 1024, NCMax: 1024, NpreMax: 2, NwrMax: 2},
	}
	opt, err := f.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := len(rowCandidates(opts.CapacityBits, opts.Space))
	vsscs := len(vsscCandidates(opts.Method, opts.Space))
	if rows != 6 || vsscs != 25 {
		t.Fatalf("candidate enumeration changed: %d rows, %d VSSC levels", rows, vsscs)
	}
	if opt.Stats.Chunks != rows*vsscs {
		t.Errorf("Chunks = %d, want the full (row × VSSC) cross product %d", opt.Stats.Chunks, rows*vsscs)
	}
	if opt.Stats.Chunks <= rows {
		t.Errorf("sharding no finer than the %d row candidates", rows)
	}
	wantWorkers := runtime.GOMAXPROCS(0)
	if wantWorkers > opt.Stats.Chunks {
		wantWorkers = opt.Stats.Chunks
	}
	if opt.Stats.Workers != wantWorkers {
		t.Errorf("Workers = %d, want min(GOMAXPROCS, chunks) = %d", opt.Stats.Workers, wantWorkers)
	}
	if opt.Evaluated != opt.Stats.Evaluated || opt.Skipped != opt.Stats.SkippedTotal() {
		t.Error("Optimum.Evaluated/Skipped out of sync with Stats")
	}
}

// TestParetoFrontDeterministic: the frontier merge must also be
// schedule-independent, and so must every count. The Pareto counts depend
// on each chunk's prune front (the frozen seed front plus the points the
// chunk has swept), which one goroutine builds in unit order, so they may
// not move with the worker count either, and neither may the number of
// bounds. The 8-worker search runs three times: on a small search one
// worker may take every chunk in order, as the single worker does. The 4 KB
// case is BenchmarkParetoFront's; the 8-group mux-4 case adds equivalent
// masks and muxed units.
func TestParetoFrontDeterministic(t *testing.T) {
	f := paperFramework(t)
	sp := SearchSpace{VSSCMin: -0.06, VSSCStep: 0.02, NRMax: 1024, NCMax: 1024, NpreMax: 6, NwrMax: 4}
	hyb := SearchSpace{VSSCMin: -0.24, VSSCStep: 0.12, NRMax: 1024, NCMax: 1024, NpreMax: 3, NwrMax: 8, MuxMax: 4}
	for _, opts := range []Options{
		{CapacityBits: 4096, Flavor: device.HVT, Method: M2, Space: sp},
		{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: M2},
		{CapacityBits: 2048, Flavor: device.LVT, Method: M2, HybridGroups: 8, Space: hyb},
	} {
		name := describeOptions(opts)
		var ref *ParetoResult
		var refBounds int64
		for _, procs := range []int{1, 8, 8, 8} {
			prev := runtime.GOMAXPROCS(procs)
			bounds := searchBounds()
			res, err := f.Pareto(context.Background(), opts)
			bounds = searchBounds() - bounds
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
			}
			if ref == nil {
				ref, refBounds = res, bounds
				continue
			}
			if bounds != refBounds {
				t.Errorf("%s: %d bounds at GOMAXPROCS=%d, %d at GOMAXPROCS=1", name, bounds, procs, refBounds)
			}
			if !reflect.DeepEqual(ref.Front, res.Front) {
				t.Errorf("%s: Pareto front is schedule-dependent: %d vs %d points", name, len(ref.Front), len(res.Front))
			}
			a, b := ref.Stats, res.Stats
			a.Workers, a.Wall, b.Workers, b.Wall = 0, 0, 0, 0
			if a != b {
				t.Errorf("%s: Pareto counts are schedule-dependent:\nGOMAXPROCS=1 %+v\nGOMAXPROCS=8 %+v", name, a, b)
			}
		}
		if ref.Stats.PrunedBound == 0 {
			t.Errorf("%s: nothing pruned, so the counts cannot tell schedules apart", name)
		}
	}
}
