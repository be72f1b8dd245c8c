package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"sramco/internal/array"
	"sramco/internal/device"
	"sramco/internal/obs"
	"sramco/internal/wire"
)

// Method selects the rail-count restriction of §5.
type Method int

const (
	// M1 allows only one extra voltage level besides Vdd: a single high rail
	// at max(VDDC*, VWL*) shared by the cell supply boost and the wordline
	// overdrive; no negative Gnd.
	M1 Method = iota
	// M2 places no restriction on rail count: VDDC*, VWL* and a swept
	// negative VSSC are all available.
	M2
)

func (m Method) String() string {
	if m == M2 {
		return "M2"
	}
	return "M1"
}

// ParseMethod parses a method name ("m1" or "m2", case-insensitive) — the
// inverse of String, shared by the CLIs and the serving layer so the
// canonical forms in request cache keys cannot drift.
func ParseMethod(s string) (Method, error) {
	switch {
	case strings.EqualFold(s, "m1"):
		return M1, nil
	case strings.EqualFold(s, "m2"):
		return M2, nil
	}
	return 0, fmt.Errorf("core: unknown method %q (want m1 or m2)", s)
}

// ParseMode parses a calibration mode name ("paper" or "simulated",
// case-insensitive): the -mode flag of every CLI. It is not the inverse of
// Mode.String, which names TechPaper "paper-calibrated" in printed output.
func ParseMode(s string) (Mode, error) {
	switch {
	case strings.EqualFold(s, "paper"):
		return TechPaper, nil
	case strings.EqualFold(s, "simulated"):
		return TechSimulated, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q (want paper or simulated)", s)
}

// SearchSpace bounds the exhaustive search (§5 defaults).
type SearchSpace struct {
	VSSCMin  float64 // most negative VSSC (default -0.240)
	VSSCStep float64 // sweep step (default 0.010)
	NRMax    int     // max rows (default 1024)
	NCMax    int     // max columns (default 1024, the rail-driver sizing limit)
	NpreMax  int     // max precharger fins (default 50)
	NwrMax   int     // max write-buffer fins (default 20)

	// MuxMax enables the sense-amp sharing dimension: mux ratios
	// 2, 4, …, min(MuxMax, W) are searched alongside the unshared
	// organization. ≤ 1 (including the zero value) searches only the
	// paper's one-amp-per-bit organization.
	MuxMax int
}

// DefaultSpace returns the paper's §5 variable ranges.
func DefaultSpace() SearchSpace {
	return SearchSpace{VSSCMin: -0.240, VSSCStep: 0.010, NRMax: 1024, NCMax: 1024, NpreMax: 50, NwrMax: 20}
}

// Objective maps an evaluated design to the scalar being minimized.
type Objective func(*array.Result) float64

// Built-in objectives.
var (
	ObjectiveEDP    Objective = func(r *array.Result) float64 { return r.EDP }
	ObjectiveDelay  Objective = func(r *array.Result) float64 { return r.DArray }
	ObjectiveEnergy Objective = func(r *array.Result) float64 { return r.EArray }
	ObjectiveArea   Objective = func(r *array.Result) float64 { return r.Area }
	ObjectivePADP   Objective = func(r *array.Result) float64 { return r.PADP }
)

// ObjectiveByName maps the canonical objective names ("edp", "delay",
// "energy", "area", "padp") to the built-in objectives. Objectives are
// functions and so cannot appear in a serialized request; callers that key
// caches on a request pass the name through this table and keep the name as
// the canonical form.
func ObjectiveByName(name string) (Objective, bool) {
	switch strings.ToLower(name) {
	case "", "edp":
		return ObjectiveEDP, true
	case "delay":
		return ObjectiveDelay, true
	case "energy":
		return ObjectiveEnergy, true
	case "area":
		return ObjectiveArea, true
	case "padp":
		return ObjectivePADP, true
	}
	return nil, false
}

// objKind identifies which built-in metric an Objective minimizes, so the
// branch-and-bound searcher can read the matching lower bound off an
// array.Bound. Custom objective functions are opaque — no bound is known —
// and map to objCustom, which disables pruning.
type objKind int

const (
	objCustom objKind = iota
	objEDP
	objDelay
	objEnergy
	objArea
	objPADP
)

func objectiveKind(o Objective) objKind {
	switch reflect.ValueOf(o).Pointer() {
	case reflect.ValueOf(ObjectiveEDP).Pointer():
		return objEDP
	case reflect.ValueOf(ObjectiveDelay).Pointer():
		return objDelay
	case reflect.ValueOf(ObjectiveEnergy).Pointer():
		return objEnergy
	case reflect.ValueOf(ObjectiveArea).Pointer():
		return objArea
	case reflect.ValueOf(ObjectivePADP).Pointer():
		return objPADP
	}
	return objCustom
}

// Options configures one optimization run.
type Options struct {
	CapacityBits int
	Flavor       device.Flavor
	Method       Method

	Activity  array.Activity // zero value selects α = β = 0.5
	W         int            // access width in bits; 0 selects 64
	Space     SearchSpace    // zero value selects DefaultSpace
	Objective Objective      // nil selects EDP

	// HybridGroups enables the hybrid cell-assignment dimension: the rows
	// are split into this many contiguous groups (ordered from the
	// sense-amp end) and every per-group assignment of the two
	// characterized flavors is searched, Options.Flavor acting as the base
	// flavor of the all-clear mask. Must be 0 (off), 1 (explicitly the
	// single global flavor, identical to 0) or a power of two ≤
	// array.MaxGroups. Only the exhaustive searcher supports it.
	HybridGroups int

	// SearchWLSegs additionally searches divided-wordline segmentation
	// (1/2/4/8 segments) — an architecture extension beyond the paper's
	// flat wordline. Most effective under the AllColumns energy
	// accounting, where segmentation cuts the per-access bitline disturb.
	// Both the exhaustive and the greedy searcher honor it.
	SearchWLSegs bool

	// disableBounds turns off the branch-and-bound rectangle pruning of the
	// exhaustive searchers, forcing a full enumeration of the candidate
	// space: the never-prune reference of the parity tests, which enforce
	// that the optimum, Pareto front and infeasibility outcomes are
	// bit-identical either way — only SearchStats.Evaluated/PrunedBound and
	// the wall time change. Custom Objective functions, for which no lower
	// bound is known, select the same policy.
	disableBounds bool
}

func (o *Options) normalize() error {
	if o.CapacityBits < 4 {
		return fmt.Errorf("core: capacity %d bits too small", o.CapacityBits)
	}
	if o.CapacityBits&(o.CapacityBits-1) != 0 {
		return fmt.Errorf("core: capacity %d bits must be a power of two", o.CapacityBits)
	}
	if o.Activity == (array.Activity{}) {
		o.Activity = array.Activity{Alpha: DefaultAlpha, Beta: DefaultBeta}
	}
	if err := o.Activity.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if o.W == 0 {
		o.W = DefaultW
	}
	if o.W < 0 || o.W > o.CapacityBits {
		return fmt.Errorf("core: access width %d outside (0, capacity %d]", o.W, o.CapacityBits)
	}
	if o.Space == (SearchSpace{}) {
		o.Space = DefaultSpace()
	}
	if o.Space.MuxMax < 0 {
		return fmt.Errorf("core: MuxMax %d must be ≥ 0", o.Space.MuxMax)
	}
	if m := o.Space.MuxMax; m > 1 && m&(m-1) != 0 {
		return fmt.Errorf("core: MuxMax %d must be a power of two", m)
	}
	if g := o.HybridGroups; g < 0 || g > array.MaxGroups || (g > 1 && g&(g-1) != 0) {
		return fmt.Errorf("core: HybridGroups %d must be 0, 1 or a power of two ≤ %d", g, array.MaxGroups)
	}
	if o.Objective == nil {
		o.Objective = ObjectiveEDP
	}
	return nil
}

// hybridOn reports whether the options select a real hybrid search (two or
// more row groups); 0 and 1 both mean the single global flavor.
func (o *Options) hybridOn() bool { return o.HybridGroups > 1 }

// DesignPoint pairs a design with its evaluation.
type DesignPoint struct {
	Design array.Design
	Result *array.Result
}

// Optimum is the outcome of a search. Evaluated and Skipped mirror
// Stats.Evaluated and Stats.SkippedTotal().
type Optimum struct {
	Best      DesignPoint
	Evaluated int // model evaluations performed
	Skipped   int // candidate points rejected by constraints
	Stats     SearchStats
}

// Rails returns the rail voltages (VDDC, VWL) the method assigns before the
// remaining variables are searched (§5: VDDC and VWL are set to the minimum
// levels meeting yield; M1 merges them into one shared high rail).
func (f *Framework) Rails(flavor device.Flavor, m Method) (vddc, vwl float64, err error) {
	cc, ok := f.Cells[flavor]
	if !ok {
		return 0, 0, fmt.Errorf("core: flavor %v not characterized", flavor)
	}
	switch m {
	case M1:
		hi := math.Max(cc.VDDCStar, cc.VWLStar)
		return hi, hi, nil
	case M2:
		return cc.VDDCStar, cc.VWLStar, nil
	default:
		return 0, 0, fmt.Errorf("core: unknown method %d", m)
	}
}

// GreedyOptimize is the coordinate-descent ablation searcher: starting from
// a balanced square-ish organization with minimum fins and no negative Gnd,
// it repeatedly sweeps one variable at a time (n_r, V_SSC, wordline
// segmentation when enabled, N_pre, N_wr) keeping the others fixed, until no
// single-variable move improves the objective. It typically needs orders of
// magnitude fewer evaluations than the exhaustive search but may land in a
// local minimum.
//
// A model-evaluation error aborts the search and is propagated (wrapped in a
// *SearchError carrying the counts so far), as is a ctx cancellation;
// infeasible points are merely skipped.
func (f *Framework) GreedyOptimize(ctx context.Context, opts Options) (*Optimum, error) {
	start := time.Now()
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.hybridOn() {
		return nil, fmt.Errorf("core: greedy search does not support hybrid groups (HybridGroups=%d)", opts.HybridGroups)
	}
	tech, err := f.ArrayTech(opts.Flavor)
	if err != nil {
		return nil, err
	}
	cc := f.Cells[opts.Flavor]
	vddc, vwl, err := f.Rails(opts.Flavor, opts.Method)
	if err != nil {
		return nil, err
	}
	// Coordinate descent uses the chunk-amortized Evaluator: the N_pre and
	// N_wr sweeps revisit one (geometry, rails) chunk, so Prepare memo-hits
	// and each step costs only the per-point terms.
	ev, err := array.NewEvaluator(tech, opts.Activity)
	if err != nil {
		return nil, err
	}

	mSearchRuns.Inc()
	sp := obs.StartSpanCtx(ctx, "core.search.greedy")
	sp.Int("capacity_bits", int64(opts.CapacityBits))
	sp.Str("method", opts.Method.String())

	var stats SearchStats
	// evalAt returns (nil, nil) for points outside the space or failing a
	// constraint, and a non-nil error only for cancellation or a genuine
	// model failure — which must surface, not masquerade as infeasibility.
	evalAt := func(nrI int, vssc float64, segs, npre, nwr int) (*array.Result, error) {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		if nrI < 2 || nrI > opts.Space.NRMax || opts.CapacityBits%nrI != 0 {
			return nil, nil
		}
		nc := opts.CapacityBits / nrI
		if nc < 1 || nc > opts.Space.NCMax {
			return nil, nil
		}
		width := accessWidth(opts.W, nc)
		if segs > 1 && nc/segs < width {
			return nil, nil
		}
		if cc.RSNMAt(vssc) < f.Delta-1e-9 {
			stats.SkippedRSNM++
			return nil, nil
		}
		g := wire.Geometry{NR: nrI, NC: nc, W: width, Npre: npre, Nwr: nwr, WLSegs: segs}
		if g.Validate() != nil {
			stats.SkippedGeom++
			return nil, nil
		}
		err := ev.Prepare(g, vddc, vssc, vwl)
		var r *array.Result
		if err == nil {
			r, err = ev.Eval(npre, nwr)
		}
		if err != nil {
			return nil, fmt.Errorf("core: greedy evaluating n_r=%d N_pre=%d N_wr=%d VSSC=%g: %w", nrI, npre, nwr, vssc, err)
		}
		stats.Evaluated++
		mSearchEvaluated.Inc()
		if !r.RailsSettleInTime {
			stats.SkippedRails++
			return nil, nil
		}
		return r, nil
	}

	// Start: square-ish organization, flat wordline, no assists beyond the
	// pinned rails.
	nr := 2
	for nr*nr < opts.CapacityBits && nr < opts.Space.NRMax {
		nr *= 2
	}
	vssc, segs, npre, nwr := 0.0, 1, 1, 1
	var bestR *array.Result
	bestObj := math.Inf(1)
	var evalErr error
	changed := false
	// try evaluates one move and takes it when it improves the objective;
	// after the first error every further move is a no-op.
	try := func(nrI int, vs float64, sg, np, nw int) {
		if evalErr != nil {
			return
		}
		var r *array.Result
		if r, evalErr = evalAt(nrI, vs, sg, np, nw); r == nil {
			return
		}
		if v := opts.Objective(r); v < bestObj {
			bestObj, bestR = v, r
			nr, vssc, segs, npre, nwr = nrI, vs, sg, np, nw
			changed = true
		}
	}
	try(nr, vssc, segs, npre, nwr)
	for pass := 0; pass < 20 && evalErr == nil; pass++ {
		changed = false
		for cand := 2; cand <= opts.Space.NRMax; cand *= 2 {
			try(cand, vssc, segs, npre, nwr)
		}
		// The shared index-based candidate helper keeps the greedy sweep on
		// exactly the levels the exhaustive search visits (a lone zero level
		// under M1) — no accumulated float drift, no divergent copies.
		for _, v := range vsscCandidates(opts.Method, opts.Space) {
			try(nr, v, segs, npre, nwr)
		}
		if opts.SearchWLSegs {
			for sg := 1; sg <= 8; sg *= 2 {
				try(nr, vssc, sg, npre, nwr)
			}
		}
		for np := 1; np <= opts.Space.NpreMax; np++ {
			try(nr, vssc, segs, np, nwr)
		}
		for nw := 1; nw <= opts.Space.NwrMax; nw++ {
			try(nr, vssc, segs, npre, nw)
		}
		if !changed {
			break
		}
	}
	stats = finishStats(stats, start, 1)
	sp.Int("evaluated", int64(stats.Evaluated))
	sp.End()
	if evalErr != nil {
		return nil, &SearchError{Stats: stats, Cause: evalErr}
	}
	if bestR == nil {
		return nil, fmt.Errorf("core: greedy search: %w for %d bits", ErrInfeasible, opts.CapacityBits)
	}
	return &Optimum{
		Best:      DesignPoint{Design: bestR.Design, Result: bestR},
		Evaluated: stats.Evaluated,
		Skipped:   stats.SkippedTotal(),
		Stats:     stats,
	}, nil
}
