package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"time"

	"sramco/internal/array"
	"sramco/internal/wire"
)

// rowCand is one feasible array organization: a power-of-two row count with
// an integral column count inside the search space.
type rowCand struct{ nr, nc int }

// chunk is one shard of the exhaustive search: a single (row organization,
// VSSC level) pair. Sharding on the cross product instead of row counts
// alone keeps every core busy — a 16 KB capacity has only four row
// candidates but ~100 chunks.
type chunk struct {
	rc   rowCand
	vssc float64
	// level indexes vssc among the search's feasible VSSC levels, and org
	// indexes rc among its row organizations (search.orgs).
	level, org int32
}

// rowOrg holds the unit lists every VSSC level of one row organization
// shares: the wordline segmentations and mux ratios searched for it.
type rowOrg struct {
	segs, mux []int
}

// vsscCandidates enumerates the negative-Gnd sweep (a single zero level
// under M1). Every searcher shares this helper — the exhaustive, greedy and
// Pareto sweeps must agree on the exact level values.
//
// Levels are generated by index (-(i·step)) rather than by repeated
// subtraction: an accumulating loop smears rounding error into the deeper
// levels (0.01-stepping reaches -0.07000000000000001 instead of -0.07),
// which then leaks into Design.VSSC, RSNM LUT lookups and printed optima.
// A single rounding per level keeps each candidate bit-equal to the literal
// it prints as.
func vsscCandidates(m Method, s SearchSpace) []float64 {
	if m == M1 || s.VSSCStep <= 0 || s.VSSCMin >= 0 {
		return []float64{0}
	}
	// Deepest index with -(n·step) ≥ VSSCMin, tolerating the historical
	// 1e-9 slack for ranges that are not an exact multiple of the step.
	n := int(math.Floor(-s.VSSCMin/s.VSSCStep + 1e-9))
	out := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		out[i] = -(float64(i) * s.VSSCStep) // out[0] stays a clean +0
	}
	return out
}

// validCombosPerLevel returns the number of structurally valid (segs, mux,
// group-mask, N_pre, N_wr) candidates one VSSC level contributes across the
// given organizations. Geometry validity does not depend on the swept fin
// counts (any N_pre ≥ 1, N_wr ≥ 1 passes), so a base geometry with
// N_pre = N_wr = 1 decides the whole inner sweep; a hybrid search multiplies
// every valid base geometry by its 2^G group assignments, and organizations
// that cannot hold G row groups are structurally invalid and contribute
// nothing. Used to charge pruned VSSC levels against the validated candidate
// space, keeping Evaluated + SkippedTotal() reconciled with the true
// candidate count.
func validCombosPerLevel(opts *Options, rows []rowCand) int {
	combos := 0
	maskN := 1
	if opts.hybridOn() {
		maskN = 1 << uint(opts.HybridGroups)
	}
	for _, rc := range rows {
		if opts.hybridOn() && rc.nr%opts.HybridGroups != 0 {
			continue
		}
		width := accessWidth(opts.W, rc.nc)
		for _, segs := range segCandidates(opts, rc.nc, width) {
			for _, mux := range muxCandidates(opts.Space, width) {
				g := wire.Geometry{NR: rc.nr, NC: rc.nc, W: width, Npre: 1, Nwr: 1, WLSegs: segs, Mux: mux}
				if g.Validate() == nil {
					combos += opts.Space.NpreMax * opts.Space.NwrMax * maskN
				}
			}
		}
	}
	return combos
}

// rowCandidates enumerates the power-of-two organizations of a capacity
// within the search space, in increasing row count.
func rowCandidates(capacityBits int, s SearchSpace) []rowCand {
	rows := make([]rowCand, 0, bits.Len(uint(s.NRMax)))
	for nr := 2; nr <= s.NRMax; nr *= 2 {
		if capacityBits%nr != 0 {
			continue
		}
		nc := capacityBits / nr
		if nc < 1 || nc > s.NCMax {
			continue
		}
		rows = append(rows, rowCand{nr, nc})
	}
	return rows
}

// segCandidates enumerates the wordline segmentations searched for one
// organization: flat only, plus 2/4/8 segments wide enough for the access
// width when divided-wordline search is enabled.
func segCandidates(opts *Options, nc, width int) []int {
	segs := []int{1}
	if opts.SearchWLSegs {
		for s := 2; s <= 8 && nc/s >= width; s *= 2 {
			segs = append(segs, s)
		}
	}
	return segs
}

// accessWidth clamps the access width to the column count (narrow arrays
// access one full row — Table 4's 128 B case).
func accessWidth(w, nc int) int {
	if nc < w {
		return nc
	}
	return w
}

// designLess is the total order on design tuples used to break objective
// ties, making the parallel reduction deterministic: prefer fewer rows, then
// the weaker (less negative) Gnd assist, then fewer wordline segments, then
// less sense-amp sharing, then fewer hybrid groups and the canonically
// smaller group mask, then fewer precharger fins, then fewer write-buffer
// fins. The mux/hybrid comparisons are no-ops between degenerate designs,
// so the pre-hybrid order is preserved exactly.
func designLess(a, b array.Design) bool {
	if a.Geom.NR != b.Geom.NR {
		return a.Geom.NR < b.Geom.NR
	}
	if a.VSSC != b.VSSC {
		return a.VSSC > b.VSSC
	}
	if as, bs := a.Geom.Segments(), b.Geom.Segments(); as != bs {
		return as < bs
	}
	if am, bm := a.Geom.MuxRatio(), b.Geom.MuxRatio(); am != bm {
		return am < bm
	}
	if a.Groups != b.Groups {
		return a.Groups < b.Groups
	}
	if a.GroupMask != b.GroupMask {
		return a.GroupMask < b.GroupMask
	}
	if a.Geom.Npre != b.Geom.Npre {
		return a.Geom.Npre < b.Geom.Npre
	}
	return a.Geom.Nwr < b.Geom.Nwr
}

// incumbent is a minimum reduction: the lowest objective folded in and the
// design holding it (ok once a point has been folded in), with that
// design's Result. A worker builds the Result at the end of the unit the
// point won in (search.endUnit).
type incumbent struct {
	obj    float64
	design array.Design
	res    *array.Result
	ok     bool
}

// beats reports whether a point with objective obj and design d beats the
// incumbent: there is none yet, or obj is strictly lower, or it is equal
// and d is the canonically smaller design tuple. The comparison is a total
// order, so folding points in any order — any worker count, any
// scheduling — reaches the same minimum.
func (in *incumbent) beats(obj float64, d array.Design) bool {
	if !in.ok {
		return true
	}
	if obj != in.obj {
		return obj < in.obj
	}
	return designLess(d, in.design)
}

// Optimize exhaustively searches (V_SSC, n_r, N_pre, N_wr) — plus wordline
// segmentation, mux ratio and group mask when enabled — for the design
// minimizing the objective under the yield constraint, with VDDC/VWL pinned
// by the method (§5). The search stops at the first model error or when ctx
// is done, and the returned *SearchError carries the counts accumulated by
// every worker up to the abort together with the causal error.
//
// The walker shards (row organization × VSSC) chunks over GOMAXPROCS
// workers and reduces worker-local optima with a total order (objective,
// then the design tuple), so the returned Optimum — design, result and
// counts — is bit-identical for any GOMAXPROCS.
func (f *Framework) Optimize(ctx context.Context, opts Options) (*Optimum, error) {
	s, err := f.newSearch(ctx, opts, false)
	if err != nil {
		return nil, err
	}
	slots, st, err := s.walk()
	if err != nil {
		return nil, err
	}
	var best incumbent
	for i := range slots {
		if in := &slots[i].best; in.ok && best.beats(in.obj, in.design) {
			best = *in
		}
	}
	if !best.ok {
		return nil, fmt.Errorf("core: %w for %d bits (all %d candidates rejected)",
			ErrInfeasible, s.opts.CapacityBits, st.SkippedTotal()+st.PrunedBound)
	}
	return &Optimum{Best: DesignPoint{Design: best.design, Result: best.res}, Stats: st}, nil
}

func finishStats(s SearchStats, start time.Time, workers int) SearchStats {
	s.Workers = workers
	s.Wall = time.Since(start)
	return s
}
