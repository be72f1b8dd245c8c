package core

import (
	"context"
	"fmt"
	"math"
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

// Objective names the metric of an evaluated design that a search
// minimizes. The zero value is EDP, the paper's metric (Eqs. 2–5).
type Objective uint8

// The five objectives.
const (
	ObjectiveEDP Objective = iota
	ObjectiveDelay
	ObjectiveEnergy
	ObjectiveArea
	ObjectivePADP
)

// Of returns the objective's value on r.
func (o Objective) Of(r *array.Result) float64 {
	switch o {
	case ObjectiveDelay:
		return r.DArray
	case ObjectiveEnergy:
		return r.EArray
	case ObjectiveArea:
		return r.Area
	case ObjectivePADP:
		return r.PADP
	}
	return r.EDP
}

// ObjectiveByName maps the canonical objective names ("edp" or "",
// "delay", "energy", "area", "padp") to the objectives. Callers that key
// caches on a request keep the name as the canonical form.
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
	return 0, false
}

// Options configures one optimization run.
type Options struct {
	CapacityBits int
	Flavor       device.Flavor
	Method       Method

	Activity  array.Activity // zero value selects α = β = 0.5
	W         int            // access width in bits; 0 selects 64
	Space     SearchSpace    // zero value selects DefaultSpace
	Objective Objective      // zero value selects EDP

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
	// the wall time change.
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
	if o.Objective > ObjectivePADP {
		return fmt.Errorf("core: unknown objective %d", o.Objective)
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

// Optimum is the outcome of a search: the best design point and the
// search's counts (Stats.Evaluated model evaluations, Stats.SkippedTotal()
// candidate points rejected by constraints).
type Optimum struct {
	Best  DesignPoint
	Stats SearchStats
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
// it repeatedly sweeps one variable at a time along the exhaustive search's
// candidate lists (n_r, V_SSC, wordline segmentation when enabled, N_pre,
// N_wr) keeping the others fixed, until no single-variable move improves
// the objective. Each point is judged by the exhaustive search's rule
// (pointSearch.eval). It typically needs orders of magnitude fewer
// evaluations than the exhaustive search but may land in a local minimum.
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
	p, err := f.newPointSearch(&opts)
	if err != nil {
		return nil, err
	}

	mSearchRuns.Inc()
	sp := obs.StartSpanCtx(ctx, "core.search.greedy")
	sp.Int("capacity_bits", int64(opts.CapacityBits))
	sp.Str("method", opts.Method.String())

	// Start: square-ish organization, flat wordline, no assists beyond the
	// pinned rails. The start may lie outside the space, which only the
	// n_r sweep then leaves.
	nr := 2
	for nr*nr < opts.CapacityBits && nr < opts.Space.NRMax {
		nr *= 2
	}
	cur := p.withRows(array.Design{Geom: wire.Geometry{Npre: 1, Nwr: 1, WLSegs: 1}, VDDC: p.vddc, VWL: p.vwl},
		rowCand{nr, opts.CapacityBits / nr})
	var bestR *array.Result
	bestObj := math.Inf(1)
	var evalErr error
	changed := false
	// try evaluates one move and takes it when it improves the objective,
	// copying the point's Result out of the evaluator's scratch; after the
	// first error every further move is a no-op.
	try := func(d array.Design) {
		if evalErr != nil {
			return
		}
		if ctx.Err() != nil {
			evalErr = context.Cause(ctx)
			return
		}
		var r *array.Result
		if r, evalErr = p.eval(d); r == nil {
			return
		}
		if v := opts.Objective.Of(r); v < bestObj {
			if bestR == nil {
				bestR = new(array.Result)
			}
			bestObj, *bestR, cur = v, *r, d
			changed = true
		}
	}
	try(cur)
	for pass := 0; pass < 20 && evalErr == nil; pass++ {
		changed = false
		for _, rc := range p.rows {
			try(p.withRows(cur, rc))
		}
		for _, v := range p.vssc {
			d := cur
			d.VSSC = v
			try(d)
		}
		if opts.SearchWLSegs {
			for _, sg := range segCandidates(&opts, cur.Geom.NC, cur.Geom.W) {
				d := cur
				d.Geom.WLSegs = sg
				try(d)
			}
		}
		for np := 1; np <= opts.Space.NpreMax; np++ {
			d := cur
			d.Geom.Npre = np
			try(d)
		}
		for nw := 1; nw <= opts.Space.NwrMax; nw++ {
			d := cur
			d.Geom.Nwr = nw
			try(d)
		}
		if !changed {
			break
		}
	}
	stats := finishStats(p.stats, start, 1)
	mSearchEvaluated.Add(int64(stats.Evaluated))
	sp.Int("evaluated", int64(stats.Evaluated))
	sp.End()
	if evalErr != nil {
		return nil, &SearchError{Stats: stats, Cause: evalErr}
	}
	if bestR == nil {
		return nil, fmt.Errorf("core: greedy search: %w for %d bits", ErrInfeasible, opts.CapacityBits)
	}
	return &Optimum{Best: DesignPoint{Design: bestR.Design, Result: bestR}, Stats: stats}, nil
}
