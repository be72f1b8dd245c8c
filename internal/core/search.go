package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"sramco/internal/array"
	"sramco/internal/obs"
	"sramco/internal/wire"
)

// evalFunc matches array.Evaluate; Options.evalHook substitutes it in tests
// to inject model errors and observe the explored space.
type evalFunc func(*array.Tech, array.Design, array.Activity) (*array.Result, error)

// rowCand is one feasible array organization: a power-of-two row count with
// an integral column count inside the search space.
type rowCand struct{ nr, nc int }

// chunk is one shard of the exhaustive search: a single (row organization,
// VSSC level) pair. Sharding on the cross product instead of row counts
// alone keeps every core busy — a 16 KB capacity has only four row
// candidates but ~100 chunks.
type chunk struct {
	rc    rowCand
	vssc  float64
	level int // index of vssc among the search's feasible VSSC levels
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
	var rows []rowCand
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

// betterPoint reports whether the candidate beats the incumbent: strictly
// lower objective, or an equal objective with a canonically smaller design
// tuple. The comparison is a total order, so folding points in any order —
// any worker count, any scheduling — reaches the same minimum.
func betterPoint(cand *DesignPoint, candObj float64, inc *DesignPoint, incObj float64) bool {
	if inc == nil {
		return true
	}
	if candObj != incObj {
		return candObj < incObj
	}
	return designLess(cand.Design, inc.Design)
}

// searchWorker accumulates one worker's partial view of the search.
type searchWorker struct {
	best  *DesignPoint
	obj   float64
	stats SearchStats // Evaluated / SkippedGeom / SkippedRails only
	err   error
}

// OptimizeContext is Optimize with cancellation: the search stops at the
// first model error or when ctx is done, whichever comes first, and the
// returned *SearchError carries the counts accumulated by every worker up to
// the abort together with the causal error.
//
// The search shards (row organization × VSSC) chunks over GOMAXPROCS
// workers and reduces worker-local optima with a total order (objective,
// then the design tuple), so the returned Optimum — design, result and
// counts — is bit-identical for any GOMAXPROCS.
func (f *Framework) OptimizeContext(ctx context.Context, opts Options) (*Optimum, error) {
	start := time.Now()
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	tech, err := f.ArrayTech(opts.Flavor)
	if err != nil {
		return nil, err
	}
	cc := f.Cells[opts.Flavor]
	specs, alt, altCC, err := f.maskSpecs(&opts)
	if err != nil {
		return nil, err
	}
	// Yield feasibility that does not depend on the searched variables:
	// HSNM at nominal and WM at VWL* are met by construction of the starred
	// rails; HSNM is checked here (for both flavors of a hybrid search).
	if cc.HSNM < f.Delta {
		return nil, fmt.Errorf("core: 6T-%v HSNM %.3f below δ=%.3f at Vdd=%.3f", opts.Flavor, cc.HSNM, f.Delta, f.Vdd)
	}
	if altCC != nil && altCC.HSNM < f.Delta {
		return nil, fmt.Errorf("core: 6T-%v HSNM %.3f below δ=%.3f at Vdd=%.3f", altCC.Flavor, altCC.HSNM, f.Delta, f.Vdd)
	}
	eval := opts.evalHook
	if eval != nil && opts.hybridOn() {
		return nil, fmt.Errorf("core: hybrid groups are not supported with an eval hook")
	}
	// The hot path uses the chunk-amortized Evaluator (one Prepare per
	// (organization, segmentation, VSSC), allocation-free Eval per point);
	// an evalHook opts tests into the per-point wrapper seam instead. Both
	// paths produce bit-identical optima and counts.
	var evProto *array.Evaluator
	if eval == nil {
		evProto, err = array.NewEvaluator(tech, opts.Activity)
		if err != nil {
			return nil, err
		}
	}

	rows := rowCandidates(opts.CapacityBits, opts.Space)
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: %w: no feasible organization for %d bits within the search space", ErrInfeasible, opts.CapacityBits)
	}

	var stats SearchStats
	// Read-stability feasibility depends on VSSC alone: prune a sweep level
	// up front only when every group-assignment class fails it (a
	// global-flavor search has one class, so this is the historical
	// single-flavor prune). Levels where only some classes fail are kept and
	// the infeasible classes are skipped — and counted — per unit.
	var feasVSSC []float64
	for _, v := range vsscCandidates(opts.Method, opts.Space) {
		anyOK := false
		for _, s := range specs {
			if specRSNMOK(s, v, cc, altCC, f.Delta) {
				anyOK = true
				break
			}
		}
		if !anyOK {
			stats.PrunedVSSC++
			continue
		}
		feasVSSC = append(feasVSSC, v)
	}
	if stats.PrunedVSSC > 0 {
		// Charge pruned levels only for candidates the sweep would actually
		// have evaluated: combinations Geom.Validate rejects are SkippedGeom
		// on feasible levels and must not be double-booked as RSNM skips,
		// or Evaluated + SkippedTotal() stops reconciling with the candidate
		// count.
		stats.SkippedRSNM = stats.PrunedVSSC * validCombosPerLevel(&opts, rows)
	}
	if len(feasVSSC) == 0 {
		return nil, &SearchError{
			Stats: finishStats(stats, start, 0),
			Cause: fmt.Errorf("%w: every VSSC level fails the read-stability constraint", ErrInfeasible),
		}
	}

	chunks := make([]chunk, 0, len(rows)*len(feasVSSC))
	for _, rc := range rows {
		for li, vssc := range feasVSSC {
			chunks = append(chunks, chunk{rc: rc, vssc: vssc, level: li})
		}
	}
	stats.Chunks = len(chunks)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(chunks) {
		workers = len(chunks)
	}

	mSearchRuns.Inc()
	gSearchChunks.Set(float64(len(chunks)))
	runSpan := obs.StartSpanCtx(ctx, "core.search")
	runSpan.Int("capacity_bits", int64(opts.CapacityBits))
	runSpan.Str("method", opts.Method.String())
	runSpan.Int("chunks", int64(len(chunks)))
	runSpan.Int("workers", int64(workers))

	// Branch-and-bound fast path: built-in objectives admit a certified
	// per-rectangle lower bound, letting the searcher skip most of the space
	// while returning bit-identical optima and deterministic counts
	// (DESIGN.md §11). Custom objectives have no bound, evalHook bypasses the
	// Evaluator the bound is computed from, and DisableBounds opts parity
	// tests back into full enumeration.
	if eval == nil && !opts.DisableBounds && objectiveKind(opts.Objective) != objCustom {
		return f.optimizeBounded(runSpan, start, &opts, stats, chunks, workers, evProto, specs, alt, cc, altCC, ctx)
	}

	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	jobs := make(chan chunk, len(chunks))
	for _, c := range chunks {
		jobs <- c
	}
	close(jobs)

	slots := make([]searchWorker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot *searchWorker) {
			defer wg.Done()
			slot.obj = math.Inf(1)
			// Each worker owns an Evaluator clone (Prepare mutates memo
			// state) plus a scratch Result, copied only when a point wins —
			// the inner sweep itself allocates nothing.
			var ev *array.Evaluator
			if evProto != nil {
				ev = evProto.Clone()
			}
			var scratch array.Result
			for c := range jobs {
				if sctx.Err() != nil {
					return
				}
				chunkStart := time.Now()
				sp := obs.StartSpanCtx(sctx, "core.search.chunk")
				evals0 := slot.stats.Evaluated
				flushed := evals0
				// endChunk publishes the chunk's evaluation count to the
				// live counter and closes its trace span; it runs on every
				// exit from the chunk, including cancellation and error.
				endChunk := func(completed bool) {
					mSearchEvaluated.Add(int64(slot.stats.Evaluated - flushed))
					flushed = slot.stats.Evaluated
					if completed {
						mSearchChunks.Inc()
						hChunkDur.Observe(time.Since(chunkStart))
					}
					sp.Int("nr", int64(c.rc.nr))
					sp.Int("nc", int64(c.rc.nc))
					sp.Float("vssc", c.vssc)
					sp.Int("evaluated", int64(slot.stats.Evaluated-evals0))
					sp.End()
				}
				nr, nc := c.rc.nr, c.rc.nc
				width := accessWidth(opts.W, nc)
				pts := opts.Space.NpreMax * opts.Space.NwrMax
				for _, segs := range segCandidates(&opts, nc, width) {
					for _, mux := range muxCandidates(opts.Space, width) {
						base := wire.Geometry{NR: nr, NC: nc, W: width, Npre: 1, Nwr: 1, WLSegs: segs, Mux: mux}
						if ev != nil {
							// Structural validity is invariant across the inner
							// sweep: decide it once on the base geometry instead
							// of per point, then fix the chunk's invariants. A
							// hybrid organization that cannot hold the row
							// groups is structurally invalid the same way.
							if base.Validate() != nil || (opts.hybridOn() && nr%opts.HybridGroups != 0) {
								slot.stats.SkippedGeom += pts * len(specs)
								continue
							}
						}
						for _, s := range specs {
							if !specRSNMOK(s, c.vssc, cc, altCC, f.Delta) {
								slot.stats.SkippedRSNM += pts
								continue
							}
							if ev != nil {
								var perr error
								if opts.hybridOn() {
									perr = ev.PrepareHybrid(base, s.vddc, c.vssc, s.vwl,
										array.Hybrid{Groups: opts.HybridGroups, Mask: s.mask, Alt: alt})
								} else {
									perr = ev.Prepare(base, s.vddc, c.vssc, s.vwl)
								}
								if perr != nil {
									slot.err = fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
										nr, nc, 1, 1, c.vssc, perr)
									cancel(slot.err)
									endChunk(false)
									return
								}
							}
							for npre := 1; npre <= opts.Space.NpreMax; npre++ {
								if sctx.Err() != nil {
									endChunk(false)
									return
								}
								for nwr := 1; nwr <= opts.Space.NwrMax; nwr++ {
									var r *array.Result
									var d array.Design
									if ev != nil {
										if err := ev.EvalInto(npre, nwr, &scratch); err != nil {
											slot.err = fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
												nr, nc, npre, nwr, c.vssc, err)
											cancel(slot.err)
											endChunk(false)
											return
										}
										r, d = &scratch, scratch.Design
									} else {
										d = array.Design{
											Geom: wire.Geometry{NR: nr, NC: nc, W: width, Npre: npre, Nwr: nwr, WLSegs: segs, Mux: mux},
											VDDC: s.vddc, VSSC: c.vssc, VWL: s.vwl,
										}
										if d.Geom.Validate() != nil {
											slot.stats.SkippedGeom++
											continue
										}
										var err error
										r, err = eval(tech, d, opts.Activity)
										if err != nil {
											slot.err = fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
												nr, nc, npre, nwr, c.vssc, err)
											cancel(slot.err)
											endChunk(false)
											return
										}
									}
									slot.stats.Evaluated++
									if !r.RailsSettleInTime {
										slot.stats.SkippedRails++
										continue
									}
									// Allocate the candidate point only when it wins,
									// keeping the hot loop free of per-point garbage
									// (the fast path's scratch is copied out here).
									if v := opts.Objective(r); slot.best == nil || v < slot.obj ||
										(v == slot.obj && designLess(d, slot.best.Design)) {
										rc := *r
										slot.best, slot.obj = &DesignPoint{Design: d, Result: &rc}, v
									}
								}
								// Flush the live counter once per N_wr sweep — cheap
								// enough for the hot loop, fresh enough for -progress.
								mSearchEvaluated.Add(int64(slot.stats.Evaluated - flushed))
								flushed = slot.stats.Evaluated
							}
						}
					}
				}
				endChunk(true)
			}
		}(&slots[w])
	}
	wg.Wait()

	var best *DesignPoint
	obj := math.Inf(1)
	for i := range slots {
		stats.addWorker(slots[i].stats)
		if slots[i].best != nil && betterPoint(slots[i].best, slots[i].obj, best, obj) {
			best, obj = slots[i].best, slots[i].obj
		}
	}
	stats = finishStats(stats, start, workers)
	runSpan.Int("evaluated", int64(stats.Evaluated))
	runSpan.End()

	if cause := context.Cause(sctx); cause != nil {
		return nil, &SearchError{Stats: stats, Cause: cause}
	}
	if best == nil {
		return nil, fmt.Errorf("core: %w for %d bits (all %d candidates rejected)",
			ErrInfeasible, opts.CapacityBits, stats.SkippedTotal())
	}
	return &Optimum{Best: *best, Evaluated: stats.Evaluated, Skipped: stats.SkippedTotal(), Stats: stats}, nil
}

func finishStats(s SearchStats, start time.Time, workers int) SearchStats {
	s.Workers = workers
	s.Wall = time.Since(start)
	return s
}
