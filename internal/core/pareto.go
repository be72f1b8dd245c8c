package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"sramco/internal/array"
	"sramco/internal/obs"
	"sramco/internal/wire"
)

// ParetoResult pairs the energy-delay frontier with the search statistics of
// the sweep that produced it, mirroring Optimum for the scalarized search.
type ParetoResult struct {
	Front []DesignPoint
	Stats SearchStats
}

// ParetoFront is ParetoFrontContext without cancellation.
func (f *Framework) ParetoFront(opts Options) ([]DesignPoint, error) {
	return f.ParetoFrontContext(context.Background(), opts)
}

// ParetoFrontContext returns just the frontier of ParetoSearchContext,
// preserving the historical signature.
func (f *Framework) ParetoFrontContext(ctx context.Context, opts Options) ([]DesignPoint, error) {
	res, err := f.ParetoSearchContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	return res.Front, nil
}

// ParetoSearch is ParetoSearchContext without cancellation.
func (f *Framework) ParetoSearch(opts Options) (*ParetoResult, error) {
	return f.ParetoSearchContext(context.Background(), opts)
}

// ParetoSearchContext exhaustively enumerates the same search space as
// Optimize — including divided-wordline segmentation when
// Options.SearchWLSegs is set — but returns the full energy-delay Pareto
// frontier instead of the single minimum-EDP point: every feasible design
// for which no other feasible design is both faster and lower-energy. Points
// are returned sorted by increasing delay (hence decreasing energy),
// together with the same SearchStats the other searchers report.
//
// The frontier exposes the trade-off the EDP scalarization hides — e.g. how
// much energy a delay-critical cache bank must pay to match LVT speed.
//
// Like OptimizeContext the sweep shards (row × VSSC) chunks over workers,
// uses the chunk-amortized array.Evaluator on the hot path, emits the
// core.search span/counter scheme (run span core.search.pareto, one
// core.search.chunk span per shard), cancels on the first model error or ctx
// cancellation — returning a *SearchError carrying the counts so far — and
// resolves metric ties canonically so the returned frontier is
// deterministic for any GOMAXPROCS.
func (f *Framework) ParetoSearchContext(ctx context.Context, opts Options) (*ParetoResult, error) {
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
	if altCC != nil && altCC.HSNM < f.Delta {
		return nil, fmt.Errorf("core: 6T-%v HSNM %.3f below δ=%.3f at Vdd=%.3f", altCC.Flavor, altCC.HSNM, f.Delta, f.Vdd)
	}
	eval := opts.evalHook
	if eval != nil && opts.hybridOn() {
		return nil, fmt.Errorf("core: hybrid groups are not supported with an eval hook")
	}
	var evProto *array.Evaluator
	if eval == nil {
		evProto, err = array.NewEvaluator(tech, opts.Activity)
		if err != nil {
			return nil, err
		}
	}

	rows := rowCandidates(opts.CapacityBits, opts.Space)
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: %w: no feasible organization for %d bits", ErrInfeasible, opts.CapacityBits)
	}
	var stats SearchStats
	// Prune a VSSC level only when every group-assignment class fails the
	// read-stability constraint, as in OptimizeContext.
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
		stats.SkippedRSNM = stats.PrunedVSSC * validCombosPerLevel(&opts, rows)
	}
	var chunks []chunk
	for _, rc := range rows {
		for li, vssc := range feasVSSC {
			chunks = append(chunks, chunk{rc: rc, vssc: vssc, level: li})
		}
	}
	if len(chunks) == 0 {
		return nil, &SearchError{
			Stats: finishStats(stats, start, 0),
			Cause: fmt.Errorf("%w: empty Pareto front for %d bits", ErrInfeasible, opts.CapacityBits),
		}
	}
	stats.Chunks = len(chunks)

	workers := runtime.GOMAXPROCS(0)
	if workers > len(chunks) {
		workers = len(chunks)
	}

	mSearchRuns.Inc()
	gSearchChunks.Set(float64(len(chunks)))
	runSpan := obs.StartSpanCtx(ctx, "core.search.pareto")
	runSpan.Int("capacity_bits", int64(opts.CapacityBits))
	runSpan.Str("method", opts.Method.String())
	runSpan.Int("chunks", int64(len(chunks)))
	runSpan.Int("workers", int64(workers))

	// Branch-and-bound fast path: a rectangle some frozen-front member
	// dominates in both metrics cannot contribute to the frontier, so it is
	// pruned without evaluation; the merged front is bit-identical to the
	// full enumeration's (DESIGN.md §11).
	if eval == nil && !opts.DisableBounds {
		return f.paretoBounded(runSpan, start, &opts, stats, chunks, workers, evProto, specs, alt, cc, altCC, ctx)
	}

	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	jobs := make(chan chunk, len(chunks))
	for _, c := range chunks {
		jobs <- c
	}
	close(jobs)

	type paretoWorker struct {
		front []DesignPoint
		stats SearchStats
	}
	slots := make([]paretoWorker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot *paretoWorker) {
			defer wg.Done()
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
									cancel(fmt.Errorf("core: pareto evaluating n_r=%d N_pre=%d N_wr=%d VSSC=%g: %w",
										nr, 1, 1, c.vssc, perr))
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
											cancel(fmt.Errorf("core: pareto evaluating n_r=%d N_pre=%d N_wr=%d VSSC=%g: %w",
												nr, npre, nwr, c.vssc, err))
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
											cancel(fmt.Errorf("core: pareto evaluating n_r=%d N_pre=%d N_wr=%d VSSC=%g: %w",
												nr, npre, nwr, c.vssc, err))
											endChunk(false)
											return
										}
									}
									slot.stats.Evaluated++
									if !r.RailsSettleInTime {
										slot.stats.SkippedRails++
										continue
									}
									rc := *r
									slot.front = insertPareto(slot.front, DesignPoint{Design: d, Result: &rc})
								}
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

	for i := range slots {
		stats.addWorker(slots[i].stats)
	}
	stats = finishStats(stats, start, workers)
	runSpan.Int("evaluated", int64(stats.Evaluated))
	runSpan.End()
	if cause := context.Cause(sctx); cause != nil {
		return nil, &SearchError{Stats: stats, Cause: cause}
	}

	var candidates []DesignPoint
	for i := range slots {
		candidates = append(candidates, slots[i].front...)
	}
	return mergePareto(candidates, stats, opts.CapacityBits)
}

// mergePareto reduces worker-local fronts to the global frontier. A globally
// non-dominated point survives every worker-local reduction, so the union of
// local fronts contains the global frontier regardless of how chunks were
// distributed. Inserting the union in canonical design order makes metric
// ties order-free too; the result is sorted by increasing delay.
func mergePareto(candidates []DesignPoint, stats SearchStats, capacityBits int) (*ParetoResult, error) {
	sort.Slice(candidates, func(i, j int) bool {
		return designLess(candidates[i].Design, candidates[j].Design)
	})
	var merged []DesignPoint
	for _, p := range candidates {
		merged = insertPareto(merged, p)
	}
	if len(merged) == 0 {
		return nil, &SearchError{
			Stats: stats,
			Cause: fmt.Errorf("%w: empty Pareto front for %d bits", ErrInfeasible, capacityBits),
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		di, dj := merged[i].Result, merged[j].Result
		if di.DArray != dj.DArray {
			return di.DArray < dj.DArray
		}
		if di.EArray != dj.EArray {
			return di.EArray < dj.EArray
		}
		return designLess(merged[i].Design, merged[j].Design)
	})
	return &ParetoResult{Front: merged, Stats: stats}, nil
}

// insertPareto inserts p into a non-dominated set, dropping p if dominated
// and evicting any points p dominates. Domination is on (DArray, EArray),
// minimizing both; exact metric ties keep the canonically smaller design so
// the front does not depend on insertion order.
func insertPareto(front []DesignPoint, p DesignPoint) []DesignPoint {
	pd, pe := p.Result.DArray, p.Result.EArray
	for i, q := range front {
		qd, qe := q.Result.DArray, q.Result.EArray
		if qd == pd && qe == pe {
			if designLess(p.Design, q.Design) {
				front[i] = p
			}
			return front
		}
		if qd <= pd && qe <= pe {
			// q dominates p: keep the existing front unchanged.
			return front
		}
	}
	keep := front[:0]
	for _, q := range front {
		if !(pd <= q.Result.DArray && pe <= q.Result.EArray) {
			keep = append(keep, q)
		}
	}
	return append(keep, p)
}

// KneePoint returns the index of the frontier point closest (in normalized
// log space) to the utopia point (min delay, min energy) — a useful default
// pick when EDP is not the intended scalarization. It panics on an empty
// frontier.
func KneePoint(front []DesignPoint) int {
	if len(front) == 0 {
		panic("core: KneePoint of empty frontier")
	}
	minD, minE := math.Inf(1), math.Inf(1)
	maxD, maxE := math.Inf(-1), math.Inf(-1)
	for _, p := range front {
		minD = math.Min(minD, p.Result.DArray)
		minE = math.Min(minE, p.Result.EArray)
		maxD = math.Max(maxD, p.Result.DArray)
		maxE = math.Max(maxE, p.Result.EArray)
	}
	spanD, spanE := maxD-minD, maxE-minE
	if spanD == 0 {
		spanD = 1
	}
	if spanE == 0 {
		spanE = 1
	}
	best, bestDist := 0, math.Inf(1)
	for i, p := range front {
		dd := (p.Result.DArray - minD) / spanD
		de := (p.Result.EArray - minE) / spanE
		if dist := dd*dd + de*de; dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}
