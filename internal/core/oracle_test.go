package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
	"sramco/internal/wire"
)

// oracleRun is the outcome of the reference search: the minimum under the
// options' objective (designLess breaking ties), the energy-delay front in
// Pareto's order, the counts, and the evaluations per wordline
// segmentation.
type oracleRun struct {
	best  *DesignPoint
	front []DesignPoint
	stats SearchStats
	segs  map[int]int
}

// oracleSearch is the obviously-correct reference for the unit walker: a
// sequential enumeration of every candidate point through the per-point
// array.EvaluateHybrid model — no Evaluator reuse, no units, no bounds, no
// workers. It shares only the candidate helpers with the searcher
// (vsscCandidates, rowCandidates, segCandidates, muxCandidates, maskSpecs),
// which have their own tests.
func oracleSearch(t *testing.T, f *Framework, opts Options) oracleRun {
	t.Helper()
	if err := opts.normalize(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	tech, err := f.ArrayTech(opts.Flavor)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	specs, alt, altCC, err := f.maskSpecs(&opts)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	cc := f.Cells[opts.Flavor]
	run := oracleRun{segs: map[int]int{}}
	var feasible []DesignPoint
	bestObj := math.Inf(1)
	for _, vssc := range vsscCandidates(opts.Method, opts.Space) {
		levelOK := false
		for _, s := range specs {
			levelOK = levelOK || specRSNMOK(s, vssc, cc, altCC, f.Delta)
		}
		if !levelOK {
			run.stats.PrunedVSSC++
		}
		for _, rc := range rowCandidates(opts.CapacityBits, opts.Space) {
			width := accessWidth(opts.W, rc.nc)
			for _, segs := range segCandidates(&opts, rc.nc, width) {
				for _, mux := range muxCandidates(opts.Space, width) {
					for _, s := range specs {
						for npre := 1; npre <= opts.Space.NpreMax; npre++ {
							for nwr := 1; nwr <= opts.Space.NwrMax; nwr++ {
								d := array.Design{
									Geom: wire.Geometry{NR: rc.nr, NC: rc.nc, W: width, Npre: npre, Nwr: nwr, WLSegs: segs, Mux: mux},
									VDDC: s.vddc, VSSC: vssc, VWL: s.vwl,
								}
								if opts.hybridOn() {
									d.Groups, d.GroupMask = opts.HybridGroups, s.mask
								}
								valid := d.Geom.Validate() == nil && (!opts.hybridOn() || rc.nr%opts.HybridGroups == 0)
								switch {
								case !levelOK:
									// A pruned level charges only the points the
									// sweep would have evaluated.
									if valid {
										run.stats.SkippedRSNM++
									}
									continue
								case !valid:
									run.stats.SkippedGeom++
									continue
								case !specRSNMOK(s, vssc, cc, altCC, f.Delta):
									run.stats.SkippedRSNM++
									continue
								}
								r, err := array.EvaluateHybrid(tech, d, opts.Activity, alt)
								if err != nil {
									t.Fatalf("oracle: evaluating %+v: %v", d, err)
								}
								run.stats.Evaluated++
								run.segs[segs]++
								if !r.RailsSettleInTime {
									run.stats.SkippedRails++
									continue
								}
								p := DesignPoint{Design: d, Result: r}
								feasible = append(feasible, p)
								if v := opts.Objective(r); run.best == nil || v < bestObj ||
									(v == bestObj && designLess(d, run.best.Design)) {
									run.best, bestObj = &p, v
								}
							}
						}
					}
				}
			}
		}
	}
	// The front by definition: sorted by (delay, energy, design), a point is
	// kept iff its energy is strictly below every point before it — anything
	// earlier is at least as fast, so an equal or lower energy there
	// dominates it (or ties it with a canonically smaller design).
	sort.Slice(feasible, func(i, j int) bool {
		a, b := feasible[i].Result, feasible[j].Result
		if a.DArray != b.DArray {
			return a.DArray < b.DArray
		}
		if a.EArray != b.EArray {
			return a.EArray < b.EArray
		}
		return designLess(feasible[i].Design, feasible[j].Design)
	})
	minE := math.Inf(1)
	for _, p := range feasible {
		if p.Result.EArray < minE {
			run.front = append(run.front, p)
			minE = p.Result.EArray
		}
	}
	return run
}

// TestWalkerMatchesOracle is the seeded differential test of the unit
// walker: over random small search spaces — capacities, flavors, methods,
// objectives (one custom), hybrid groups, mux ratios, segmentation and
// read-stability cliffs — the bounded and the full-enumeration optima must
// equal the oracle's bit for bit, both policies' Pareto fronts must equal
// the oracle's front, the full enumeration's counts must equal the
// oracle's, and the bounded counts must reconcile with them. Only 8-group
// searches have equivalent masks (DESIGN.md §13.7), so they are drawn too,
// in narrower spaces under a larger point budget.
func TestWalkerMatchesOracle(t *testing.T) {
	const cases = 40
	const maxPoints = 12000   // oracle points per case, to keep the test fast
	const maxPoints8 = 120000 // the same for 8 groups: 256 masks per geometry
	objectives := []string{"edp", "delay", "energy", "area", "padp", "custom"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < cases; {
		f := paperFramework(t)
		cliff := ""
		if rng.Intn(3) == 0 {
			cutoff := -0.02 - 0.1*rng.Float64()
			f = pruningFramework(t, cutoff)
			cliff = "hvt-rsnm-cliff "
		}
		objName := objectives[rng.Intn(len(objectives))]
		obj, ok := ObjectiveByName(objName)
		if !ok {
			// The custom objective, which has no bound: energy²·delay rounded
			// to two significant digits, so ties exercise designLess.
			obj = func(r *array.Result) float64 {
				v := r.EArray * r.EArray * r.DArray
				q := math.Pow(10, math.Floor(math.Log10(v))-1)
				return math.Round(v/q) * q
			}
		}
		opts := Options{
			CapacityBits: 64 << rng.Intn(9), // 64 b … 2 KB
			Flavor:       []device.Flavor{device.LVT, device.HVT}[rng.Intn(2)],
			Method:       []Method{M1, M2}[rng.Intn(2)],
			W:            []int{8, 16, 64}[rng.Intn(3)],
			Objective:    obj,
			HybridGroups: []int{0, 2, 4, 8}[rng.Intn(4)],
			SearchWLSegs: rng.Intn(2) == 0,
			Space: SearchSpace{
				VSSCMin:  -0.24,
				VSSCStep: []float64{0.08, 0.12, 0.24}[rng.Intn(3)],
				NRMax:    1024,
				NCMax:    1024,
				NpreMax:  1 + rng.Intn(6),
				NwrMax:   5 + rng.Intn(8),
				MuxMax:   []int{0, 2, 4}[rng.Intn(3)],
			},
		}
		budget := maxPoints
		if opts.HybridGroups == 8 {
			opts.CapacityBits = 512 << rng.Intn(3) // 512 b … 2 KB
			opts.Space.NpreMax = 1 + rng.Intn(2)
			opts.Space.VSSCStep = 0.24
			budget = maxPoints8
			if rng.Intn(2) == 0 {
				f = sharedLeakFramework(f)
				cliff += "shared-leak "
			}
		}
		norm := opts
		if err := norm.normalize(); err != nil {
			t.Fatal(err)
		}
		levels := len(vsscCandidates(norm.Method, norm.Space))
		if levels*validCombosPerLevel(&norm, rowCandidates(norm.CapacityBits, norm.Space)) > budget {
			continue // redraw: the oracle costs microseconds per point
		}
		name := cliff + objName + " " + describeOptions(opts)
		i++

		checkWalker(t, f, name, opts, objName == "custom")
	}
}

// checkWalker runs both policies' Optimize and Pareto on opts and compares
// them with the oracle, which it returns. custom marks an objective without
// a bound, whose Optimize never prunes.
func checkWalker(t *testing.T, f *Framework, name string, opts Options, custom bool) oracleRun {
	t.Helper()
	ref := oracleSearch(t, f, opts)
	if ref.best == nil {
		t.Fatalf("%s: oracle found no feasible design", name)
	}
	t.Logf("%s: %d oracle evaluations, %d-point front", name, ref.stats.Evaluated, len(ref.front))
	full := opts
	full.DisableBounds = true
	for _, o := range []Options{opts, full} {
		policy := "bounded"
		if o.DisableBounds {
			policy = "full"
		}
		opt, err := f.Optimize(context.Background(), o)
		if err != nil {
			t.Fatalf("%s %s Optimize: %v", name, policy, err)
		}
		if !reflect.DeepEqual(opt.Best, *ref.best) {
			t.Errorf("%s %s: optimum diverges from the oracle:\nwalker %+v\noracle %+v",
				name, policy, opt.Best.Design, ref.best.Design)
		}
		front, err := f.Pareto(context.Background(), o)
		if err != nil {
			t.Fatalf("%s %s Pareto: %v", name, policy, err)
		}
		if !reflect.DeepEqual(front.Front, ref.front) {
			t.Errorf("%s %s: front (%d points) diverges from the oracle's (%d points)",
				name, policy, len(front.Front), len(ref.front))
		}
		// The front ignores the objective.
		checkOracleCounts(t, name+" "+policy+" Optimize", opt.Stats, ref.stats, o.DisableBounds || custom)
		checkOracleCounts(t, name+" "+policy+" Pareto", front.Stats, ref.stats, o.DisableBounds)
	}
	return ref
}

// sharedLeakFramework returns a copy of f whose HVT cell leaks exactly as
// much as its LVT cell and reads at half its own current. The leakage
// weight then no longer tells masks apart, so an 8-group class holds every
// mask whose far and near groups carry the same flavors, and the slower HVT
// reads make the far groups' flavors matter: optima and fronts fall in
// classes of many masks, where only the smallest may answer. In the paper
// technology they keep to masks alone in their class.
func sharedLeakFramework(f *Framework) *Framework {
	leak := f.Cells[device.LVT].Leak
	return withHVT(f, func(hvt *CellChar) {
		iRead := hvt.IRead
		hvt.Leak = leak
		hvt.IRead = func(vddc, vssc float64) float64 { return 0.5 * iRead(vddc, vssc) }
	})
}

// TestWalkerMatchesOracleInMaskClasses compares the walker with the oracle
// on 8-group searches whose optimum and front lie in mask classes of
// several masks (DESIGN.md §13.7), which the random draws reach only by
// chance: the bounded walker prepares and sweeps one mask per class, and
// only the class's smallest mask may answer. The test also checks that
// precondition, so it cannot pass vacuously.
func TestWalkerMatchesOracleInMaskClasses(t *testing.T) {
	f := sharedLeakFramework(paperFramework(t))
	for _, objName := range []string{"edp", "delay"} {
		obj, _ := ObjectiveByName(objName)
		opts := Options{CapacityBits: 512, Flavor: device.HVT, Method: M2, W: 64, Objective: obj, HybridGroups: 8,
			Space: SearchSpace{VSSCMin: -0.24, VSSCStep: 0.24, NRMax: 1024, NCMax: 1024, NpreMax: 2, NwrMax: 8}}
		name := objName + " " + describeOptions(opts)
		s, err := f.newSearch(context.Background(), opts, false)
		if err != nil {
			t.Fatal(err)
		}
		s.cancel(nil)
		s.span.End()
		members := make(map[uint16]int)
		for _, r := range s.rep {
			members[r]++
		}
		ref := checkWalker(t, f, name, opts, false)
		if m := ref.best.Design.GroupMask; members[s.rep[m]] < 2 {
			t.Errorf("%s: the optimum's mask %#x is alone in its class", name, m)
		}
		inClass := 0
		for _, p := range ref.front {
			if members[s.rep[p.Design.GroupMask]] > 1 {
				inClass++
			}
		}
		if inClass == 0 {
			t.Errorf("%s: no front point lies in a class of several masks", name)
		}
	}
}

// checkOracleCounts compares a walker run's counts with the oracle's: equal
// under full enumeration; under branch-and-bound the pruned points (rail
// failures included) make up exactly the oracle's evaluations the walker
// skipped.
func checkOracleCounts(t *testing.T, name string, got, want SearchStats, full bool) {
	t.Helper()
	if got.SkippedRSNM != want.SkippedRSNM || got.SkippedGeom != want.SkippedGeom || got.PrunedVSSC != want.PrunedVSSC {
		t.Errorf("%s: skips (rsnm %d, geom %d, vssc %d) differ from the oracle's (%d, %d, %d)", name,
			got.SkippedRSNM, got.SkippedGeom, got.PrunedVSSC, want.SkippedRSNM, want.SkippedGeom, want.PrunedVSSC)
	}
	if full {
		if got.Evaluated != want.Evaluated || got.SkippedRails != want.SkippedRails || got.PrunedBound != 0 {
			t.Errorf("%s: evaluated %d, rails %d, pruned %d; oracle evaluated %d, rails %d", name,
				got.Evaluated, got.SkippedRails, got.PrunedBound, want.Evaluated, want.SkippedRails)
		}
		return
	}
	if got.Evaluated+got.PrunedBound != want.Evaluated || got.SkippedRails != 0 {
		t.Errorf("%s: evaluated %d + pruned %d (rails %d) does not reconcile with the oracle's %d evaluations", name,
			got.Evaluated, got.PrunedBound, got.SkippedRails, want.Evaluated)
	}
}

func describeOptions(o Options) string {
	return fmt.Sprintf("%v %v bits=%d w=%d groups=%d mux=%d npre=%d nwr=%d vsscstep=%g dwl=%v",
		o.Flavor, o.Method, o.CapacityBits, o.W, o.HybridGroups, o.Space.MuxMax,
		o.Space.NpreMax, o.Space.NwrMax, o.Space.VSSCStep, o.SearchWLSegs)
}

// TestParetoRejectsHSNMBelowDelta pins the shared setup's yield check: HSNM
// is not searched, so a flavor whose hold margin misses δ makes every
// search fail up front — the front included, which used to skip the
// base-flavor check and return designs violating min(HSNM, RSNM, WM) ≥ δ.
// An every-level read-stability failure reads the same from both searches.
func TestParetoRejectsHSNMBelowDelta(t *testing.T) {
	f, err := NewFramework(TechPaper, FrameworkOpts{Delta: 0.23})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{CapacityBits: 8192, Flavor: device.HVT, Method: M2}
	if _, err := f.Optimize(context.Background(), opts); err == nil || !strings.Contains(err.Error(), "below δ") {
		t.Errorf("Optimize error = %v, want HSNM below δ", err)
	}
	res, err := f.Pareto(context.Background(), opts)
	if err == nil || !strings.Contains(err.Error(), "HSNM") || !strings.Contains(err.Error(), "below δ") {
		n := 0
		if res != nil {
			n = len(res.Front)
		}
		t.Errorf("Pareto error = %v (%d points), want HSNM below δ", err, n)
	}

	pf := pruningFramework(t, 1)
	_, errOpt := pf.Optimize(context.Background(), opts)
	_, errPar := pf.Pareto(context.Background(), opts)
	for _, err := range []error{errOpt, errPar} {
		if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "every VSSC level fails the read-stability constraint") {
			t.Errorf("every-level read-stability failure: error = %v", err)
		}
	}
}
