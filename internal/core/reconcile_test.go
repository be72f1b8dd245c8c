package core

import (
	"context"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sramco/internal/device"
	"sramco/internal/obs"
)

// hvtVariant returns a shallow copy of the paper framework whose HVT
// characterization is edited by edit; the shared framework is untouched.
func hvtVariant(t *testing.T, edit func(hvt *CellChar)) *Framework {
	t.Helper()
	return withHVT(paperFramework(t), edit)
}

// withHVT returns a shallow copy of base whose HVT characterization is
// edited by edit; base is untouched.
func withHVT(base *Framework, edit func(hvt *CellChar)) *Framework {
	f := *base
	f.Cells = make(map[device.Flavor]*CellChar, len(base.Cells))
	for k, v := range base.Cells {
		cc := *v
		f.Cells[k] = &cc
	}
	edit(f.Cells[device.HVT])
	return &f
}

// pruningFramework returns a copy of the paper framework whose HVT cell
// fails read stability below cutoff — TechPaper's RSNMAt is the constant δ
// (the starred rails are chosen to meet it), so pruning tests need an
// explicit cliff.
func pruningFramework(t *testing.T, cutoff float64) *Framework {
	t.Helper()
	delta := paperFramework(t).Delta
	return hvtVariant(t, func(hvt *CellChar) {
		hvt.RSNMAt = func(vssc float64) float64 {
			if vssc < cutoff {
				return 0
			}
			return delta
		}
	})
}

// TestSkippedRSNMReconcilesWithValidatedSpace covers the up-front pruning
// accounting bug: pruned VSSC levels used to be charged NpreMax·NwrMax
// points for every organization, including (npre, nwr) combinations
// Geom.Validate rejects on the feasible levels — so Evaluated + SkippedRSNM
// could not reconcile with the candidate space. The fix counts pruned
// levels against the validated space only, giving the exact identity
//
//	Evaluated + SkippedRSNM == levels × validCombosPerLevel
//
// The space is picked so geometry skips actually occur: capacity 64 bits
// with W = 6 makes the wide organizations fail the power-of-two access
// width check.
func TestSkippedRSNMReconcilesWithValidatedSpace(t *testing.T) {
	f := pruningFramework(t, -0.015) // prunes -0.02 and -0.03
	opts := Options{
		CapacityBits: 64,
		Flavor:       device.HVT,
		Method:       M2,
		W:            6,
		Space:        SearchSpace{VSSCMin: -0.03, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 2, NwrMax: 2},
	}
	opt, err := f.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	st := opt.Stats

	levels := len(vsscCandidates(opts.Method, opts.Space))
	if levels != 4 {
		t.Fatalf("levels = %d, want 4", levels)
	}
	if st.PrunedVSSC != 2 {
		t.Fatalf("PrunedVSSC = %d, want 2", st.PrunedVSSC)
	}
	// Organizations: nr ∈ {2..64} with nc = 64/nr; width = min(6, nc) is a
	// valid power of two only for nc ∈ {4, 2, 1} → 3 valid organizations ×
	// NpreMax×NwrMax fin combinations each.
	normOpts := opts
	if err := normOpts.normalize(); err != nil {
		t.Fatal(err)
	}
	valid := validCombosPerLevel(&normOpts, rowCandidates(normOpts.CapacityBits, normOpts.Space))
	if valid != 12 {
		t.Fatalf("validCombosPerLevel = %d, want 12", valid)
	}
	if got, want := st.Evaluated+st.SkippedRSNM+st.PrunedBound, levels*valid; got != want {
		t.Errorf("Evaluated (%d) + SkippedRSNM (%d) + PrunedBound (%d) = %d, want levels×valid = %d",
			st.Evaluated, st.SkippedRSNM, st.PrunedBound, got, want)
	}
	if want := st.PrunedVSSC * valid; st.SkippedRSNM != want {
		t.Errorf("SkippedRSNM = %d, want PrunedVSSC×valid = %d", st.SkippedRSNM, want)
	}
	// Feasible levels either evaluate a validated combination or prune it by
	// bound (rails failures are evaluated points in the unpruned sweep and
	// bound-pruned in the branch-and-bound one), so Evaluated + PrunedBound
	// is exactly (levels−pruned)×valid.
	if want := (levels - st.PrunedVSSC) * valid; st.Evaluated+st.PrunedBound != want {
		t.Errorf("Evaluated (%d) + PrunedBound (%d) = %d, want %d",
			st.Evaluated, st.PrunedBound, st.Evaluated+st.PrunedBound, want)
	}
	// Geometry skips: the 3 invalid organizations × NpreMax×NwrMax, charged
	// only on the feasible (actually searched) levels.
	if want := (levels - st.PrunedVSSC) * 3 * 4; st.SkippedGeom != want {
		t.Errorf("SkippedGeom = %d, want %d", st.SkippedGeom, want)
	}
	if opt.Skipped != st.SkippedTotal() {
		t.Errorf("Optimum.Skipped (%d) != Stats.SkippedTotal (%d)", opt.Skipped, st.SkippedTotal())
	}
}

// TestVSSCCandidatesAreExactLiterals covers the float-drift bugfix: the
// accumulating v -= step loop smeared rounding error into the deeper levels
// (-0.07000000000000001 after seven 0.01 steps). Index-based generation
// keeps every level bit-equal to the decimal literal it prints as.
func TestVSSCCandidatesAreExactLiterals(t *testing.T) {
	got := vsscCandidates(M2, DefaultSpace())
	if len(got) != 25 {
		t.Fatalf("%d levels, want 25", len(got))
	}
	want := []float64{0, -0.01, -0.02, -0.03, -0.04, -0.05, -0.06, -0.07, -0.08, -0.09,
		-0.10, -0.11, -0.12, -0.13, -0.14, -0.15, -0.16, -0.17, -0.18, -0.19,
		-0.20, -0.21, -0.22, -0.23, -0.24}
	for i, v := range got {
		if v != want[i] { // == on float64: literal-exact, no tolerance
			t.Errorf("level %d = %v (bits %x), want the literal %v", i, v, math.Float64bits(v), want[i])
		}
		if s := strconv.FormatFloat(v, 'g', -1, 64); strings.Contains(s, "000000000") {
			t.Errorf("level %d prints with drift: %s", i, s)
		}
	}
	if math.Signbit(got[0]) {
		t.Error("level 0 is -0, want +0")
	}

	// M1 collapses to the lone zero level regardless of the range.
	if m1 := vsscCandidates(M1, DefaultSpace()); len(m1) != 1 || m1[0] != 0 {
		t.Errorf("M1 candidates = %v, want [0]", m1)
	}
	// Degenerate spaces fall back to the zero level instead of looping.
	if z := vsscCandidates(M2, SearchSpace{VSSCMin: 0, VSSCStep: 0.01}); len(z) != 1 || z[0] != 0 {
		t.Errorf("VSSCMin=0 candidates = %v, want [0]", z)
	}
	if z := vsscCandidates(M2, SearchSpace{VSSCMin: -0.1, VSSCStep: 0}); len(z) != 1 || z[0] != 0 {
		t.Errorf("zero-step candidates = %v, want [0]", z)
	}
	// A range that is not an exact multiple of the step keeps the historical
	// 1e-9 slack: -0.025 admits -0.02 but not -0.03.
	if got := vsscCandidates(M2, SearchSpace{VSSCMin: -0.025, VSSCStep: 0.01}); len(got) != 3 || got[2] != -0.02 {
		t.Errorf("non-multiple range candidates = %v, want [0 -0.01 -0.02]", got)
	}
}

// TestGreedySweepsSameVSSCLevelsAsExhaustive pins the searcher-parity fix:
// the greedy searcher used to run its own accumulating sweep loop and could
// land on drifted levels the exhaustive search never visits. Both now share
// vsscCandidates, so a greedy optimum's VSSC is bit-equal (==) to one of
// the shared candidates.
func TestGreedySweepsSameVSSCLevelsAsExhaustive(t *testing.T) {
	f := paperFramework(t)
	opts := Options{
		CapacityBits: 4096,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.07, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 6, NwrMax: 4},
	}
	opt, err := f.GreedyOptimize(context.Background(), opts)
	if err != nil {
		t.Fatalf("GreedyOptimize: %v", err)
	}
	levels := vsscCandidates(opts.Method, opts.Space)
	found := false
	for _, v := range levels {
		if opt.Best.Design.VSSC == v {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("greedy VSSC %x not among the shared candidates %v",
			math.Float64bits(opt.Best.Design.VSSC), levels)
	}
}

// TestParetoStatsAndTraceReconcile covers the searcher-parity satellite for
// the Pareto sweep: it must report the same SearchStats scheme as Optimize
// and emit the core.search instrumentation (run span core.search.pareto,
// one core.search.chunk span per shard, evaluation counts that reconcile
// exactly with the stats and the live counter).
func TestParetoStatsAndTraceReconcile(t *testing.T) {
	f := paperFramework(t)
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)
	reg := obs.Default()
	before := reg.CounterValue("core.search.evaluated")

	opts := Options{
		CapacityBits: 4096,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.03, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 4, NwrMax: 3},
	}
	res, err := f.Pareto(context.Background(), opts)
	if err != nil {
		t.Fatalf("Pareto: %v", err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty frontier")
	}
	st := res.Stats

	normOpts := opts
	if err := normOpts.normalize(); err != nil {
		t.Fatal(err)
	}
	rows := rowCandidates(normOpts.CapacityBits, normOpts.Space)
	levels := len(vsscCandidates(normOpts.Method, normOpts.Space))
	if want := len(rows) * levels; st.Chunks != want {
		t.Errorf("Chunks = %d, want rows×levels = %d", st.Chunks, want)
	}
	// Paper-mode RSNMAt is the constant δ: nothing prunes, every validated
	// combination is evaluated.
	if st.PrunedVSSC != 0 || st.SkippedRSNM != 0 {
		t.Errorf("unexpected pruning: %+v", st)
	}
	if want := levels * validCombosPerLevel(&normOpts, rows); st.Evaluated+st.PrunedBound != want {
		t.Errorf("Evaluated (%d) + PrunedBound (%d) = %d, want %d",
			st.Evaluated, st.PrunedBound, st.Evaluated+st.PrunedBound, want)
	}
	if st.Workers < 1 || st.Wall <= 0 {
		t.Errorf("missing worker/wall accounting: %+v", st)
	}

	var chunkSpans int
	var chunkSum, runTotal, prunedSum, runPruned int64
	runSpans := 0
	for _, ev := range col.Events() {
		switch ev.Name {
		case "core.search.chunk":
			chunkSpans++
			chunkSum += attrInt(t, ev, "evaluated")
			prunedSum += attrInt(t, ev, "pruned_bound")
		case "core.search.pareto":
			runSpans++
			runTotal = attrInt(t, ev, "evaluated")
			runPruned = attrInt(t, ev, "pruned_bound")
		}
	}
	if runSpans != 1 {
		t.Fatalf("%d core.search.pareto run spans, want 1", runSpans)
	}
	if chunkSpans != st.Chunks {
		t.Errorf("%d chunk spans, want %d (one per shard)", chunkSpans, st.Chunks)
	}
	if chunkSum != int64(st.Evaluated) || runTotal != int64(st.Evaluated) {
		t.Errorf("span evaluation counts (%d chunk / %d run) disagree with Stats.Evaluated %d",
			chunkSum, runTotal, st.Evaluated)
	}
	if prunedSum != int64(st.PrunedBound) || runPruned != int64(st.PrunedBound) {
		t.Errorf("span prune counts (%d chunk / %d run) disagree with Stats.PrunedBound %d",
			prunedSum, runPruned, st.PrunedBound)
	}
	if got := reg.CounterValue("core.search.evaluated") - before; got != int64(st.Evaluated) {
		t.Errorf("counter advanced by %d, Stats.Evaluated = %d", got, st.Evaluated)
	}
}

// TestParetoHonorsSearchWLSegs covers the parity gap where the Pareto sweep
// silently ignored Options.SearchWLSegs: with segmentation enabled it must
// enumerate the same divided-wordline candidates as the per-point oracle,
// and agree with it on the front and the evaluation count exactly.
func TestParetoHonorsSearchWLSegs(t *testing.T) {
	f := paperFramework(t)
	opts := Options{
		CapacityBits: 8192,
		Flavor:       device.HVT,
		Method:       M1,
		Space:        SearchSpace{VSSCMin: -0.01, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 3, NwrMax: 2},
	}
	flat, err := f.Pareto(context.Background(), opts)
	if err != nil {
		t.Fatalf("flat Pareto: %v", err)
	}

	// Bounds stay disabled so the walker enumerates the full space and the
	// evaluation counts — not just the frontiers — compare 1:1.
	segOpts := opts
	segOpts.SearchWLSegs = true
	segOpts.DisableBounds = true
	full, err := f.Pareto(context.Background(), segOpts)
	if err != nil {
		t.Fatalf("segmented Pareto: %v", err)
	}
	ref := oracleSearch(t, f, segOpts)
	for _, s := range []int{1, 2, 4, 8} {
		if ref.segs[s] == 0 {
			t.Errorf("segmentation %d never evaluated", s)
		}
	}
	if full.Stats.Evaluated <= flat.Stats.Evaluated {
		t.Errorf("SearchWLSegs did not widen the sweep: %d vs %d evaluations",
			full.Stats.Evaluated, flat.Stats.Evaluated)
	}
	if full.Stats.Evaluated != ref.stats.Evaluated {
		t.Errorf("walker evaluated %d points, oracle %d", full.Stats.Evaluated, ref.stats.Evaluated)
	}
	if !reflect.DeepEqual(full.Front, ref.front) {
		t.Fatalf("walker front (%d points) diverges from the oracle's (%d points)", len(full.Front), len(ref.front))
	}
}
