package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"sramco/internal/array"
	"sramco/internal/obs"
	"sramco/internal/wire"
)

// This file is the unit walker behind every exhaustive search.
//
// The search space factors into (chunk × segmentation × mux × mask) units,
// each an (N_pre, N_wr) rectangle sharing one Prepare. One walker enumerates
// them for both reducers — the minimum objective (ties broken by
// designLess) and the energy-delay Pareto front — under one of two pruning
// policies. Branch-and-bound skips a rectangle, or a single N_pre row of
// it, when a cheap certified lower bound (array.BoundRect) cannot beat the
// incumbent, charging the skipped points to SearchStats.PrunedBound. It
// also prepares, bounds and sweeps one group mask per equivalence class
// (DESIGN.md §13.7): masks sharing a rail class and an array.MaskKey
// prepare chunks that differ only in the GroupMask stamped on each Result,
// so the class's smallest mask answers for the others, whose rectangles
// are charged to PrunedBound unprepared. Full enumeration
// (Options.DisableBounds, or a custom objective, which has no bound and may
// read GroupMask) is the policy that never prunes: it walks every unit and
// sweeps every point.
//
// Determinism: SearchStats documents that every count is bit-identical for a
// given Options regardless of GOMAXPROCS, and the serving layer's catalog
// relies on byte-identical response bodies. Pruning against a racy
// cross-worker incumbent would make Evaluated/PrunedBound depend on
// scheduling, so pruning thresholds are derived only from
// schedule-independent state (DESIGN.md §11):
//
//  1. a bound pass prepares every unit (under branch-and-bound, every
//     class representative) on its worker's Evaluator, bounds its full
//     rectangle and keeps only a compact record (searchUnit);
//  2. the unit with the best bound seeds the search: its chunk is swept
//     first, alone, and its result freezes the global threshold (the best
//     objective T, or the front f0);
//  3. the remaining chunks are sharded over workers, each pruning against
//     the frozen threshold refined by its own chunk-local incumbent (the
//     chunk's best objective, or its prune front: f0 plus every point the
//     chunk has swept) — both independent of which worker runs the chunk
//     or in what order.
//
// Units that survive their record's bound are prepared again on the
// sweeping worker's Evaluator. Prepare is a pure function of the unit, so
// the re-prepared chunk is bit-identical to the one the bound pass saw.
// Every Prepare draws its rail-dependent currents from a rail stage built
// once per (rail class × VSSC level) before the bound pass and shared
// read-only by all workers. The core.search.units_prepared counter and the
// run span's units_prepared attribute count the Prepares of both passes.

// bnbMinRun is the N_wr range width below which the searcher sweeps the
// points instead of bisecting further: a BoundRect costs about as much as
// sweeping three points (sramperf's traced search-hybrid run measures ~86 ns
// per BoundRect against ~26 ns per swept point on a 2-vCPU x86-64 VM), so
// the two bounds of a split range of this width cost more than sweeping it.
const bnbMinRun = 4

// unitStatus classifies a searchUnit after the bound pass.
type unitStatus uint8

const (
	unitLive      unitStatus = iota // prepared and bounded: sweep, or prune on the bound
	unitGeom                        // invalid base geometry: charged to SkippedGeom
	unitRSNM                        // RSNM-infeasible mask class: charged to SkippedRSNM
	unitUnsettled                   // rails cannot settle in time: no point is feasible
	unitEquiv                       // a mask equivalent to an earlier unit's (§13.7): charged to PrunedBound
)

// searchUnit is the bound pass's record of one (chunk, segmentation, mux,
// group-mask) rectangle: which unit it is, how the pass classified it, and
// the lower bounds over its full (N_pre, N_wr) range that the prune tests
// and pickSeed read. It holds no Evaluator: the sweep re-prepares its own
// for the units that survive the bound.
type searchUnit struct {
	spec   uint16 // index into search.specs
	segs   uint8
	status unitStatus
	mux    int32
	obj    float64 // objective bound (the Pareto search seeds on EDP)
	d, e   float64 // DArray and EArray bounds (Pareto pruning)
}

// railEntry is one shared rail stage, or the error building it returned;
// the error surfaces at the first unit that needs the stage, where a
// per-unit Prepare would have failed.
type railEntry struct {
	stage array.RailStage
	err   error
}

// search carries the shared state of one exhaustive search run: the
// normalized options, the enumerated chunks, the unit records and rail
// stages, the reducer and the pruning policy.
type search struct {
	opts      *Options
	pareto    bool    // reducer: the energy-delay front instead of the minimum objective
	prunes    bool    // policy: branch-and-bound; false sweeps every point
	kind      objKind // the minimized objective (objEDP for the front, which seeds on it)
	specs     []maskSpec
	groups    int // Design.Groups of every unit: 0, or HybridGroups when hybrid
	cc, altCC *CellChar
	delta     float64
	evProto   *array.Evaluator
	chunks    []chunk
	units     [][]searchUnit // aligned with chunks

	// rails[level*nClass + specClass[spec]] is the rail stage of a spec at a
	// VSSC level. A rail class is the set of specs sharing (VDDC, VWL): a
	// hybrid search has at most three (pure base, pure alternate, mixed).
	rails     []railEntry
	specClass []int
	nClass    int

	// rep[spec] is the spec's mask-class representative: the smallest mask
	// sharing its rail class and array.MaskKey (DESIGN.md §13.7). Under
	// branch-and-bound a unit whose spec is not its own representative is
	// neither prepared nor swept.
	rep      []uint16
	nClasses int

	stats   SearchStats // setup counts: pruned VSSC levels and chunks
	start   time.Time
	workers int
	span    obs.Span
	sctx    context.Context
	done    <-chan struct{} // sctx.Done(), captured once
	cancel  context.CancelCauseFunc
}

// newSearch is the setup every exhaustive search shares: normalize the
// options, enumerate the mask specs, check HSNM for every flavor present,
// drop the VSSC levels no spec can read stably at, cut the space into
// (row organization × VSSC level) chunks, build the rail stages and start
// the run span.
func (f *Framework) newSearch(ctx context.Context, opts Options, pareto bool) (*search, error) {
	s := &search{opts: &opts, pareto: pareto, delta: f.Delta, start: time.Now()}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	tech, err := f.ArrayTech(opts.Flavor)
	if err != nil {
		return nil, err
	}
	s.cc = f.Cells[opts.Flavor]
	specs, alt, altCC, err := f.maskSpecs(&opts)
	if err != nil {
		return nil, err
	}
	s.specs, s.altCC = specs, altCC
	// Yield feasibility that does not depend on the searched variables:
	// HSNM at nominal and WM at VWL* are met by construction of the starred
	// rails; HSNM is checked here for every flavor the search can place.
	for _, cc := range []*CellChar{s.cc, altCC} {
		if cc != nil && cc.HSNM < f.Delta {
			return nil, fmt.Errorf("core: 6T-%v HSNM %.3f below δ=%.3f at Vdd=%.3f", cc.Flavor, cc.HSNM, f.Delta, f.Vdd)
		}
	}
	if s.evProto, err = array.NewEvaluator(tech, opts.Activity); err != nil {
		return nil, err
	}
	rows := rowCandidates(opts.CapacityBits, opts.Space)
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: %w: no feasible organization for %d bits within the search space", ErrInfeasible, opts.CapacityBits)
	}

	// Read-stability feasibility depends on VSSC alone: prune a sweep level
	// up front only when every group-assignment class fails it (a
	// global-flavor search has one class). Levels where only some classes
	// fail are kept and the infeasible classes are skipped — and counted —
	// per unit.
	var feasVSSC []float64
	for _, v := range vsscCandidates(opts.Method, opts.Space) {
		if slices.ContainsFunc(specs, func(sp maskSpec) bool { return specRSNMOK(sp, v, s.cc, altCC, f.Delta) }) {
			feasVSSC = append(feasVSSC, v)
		} else {
			s.stats.PrunedVSSC++
		}
	}
	// Charge pruned levels only for candidates the sweep would actually have
	// evaluated: combinations Geom.Validate rejects are SkippedGeom on
	// feasible levels and must not be double-booked as RSNM skips, or
	// Evaluated + SkippedTotal() stops reconciling with the candidate count.
	if s.stats.PrunedVSSC > 0 {
		s.stats.SkippedRSNM = s.stats.PrunedVSSC * validCombosPerLevel(&opts, rows)
	}
	if len(feasVSSC) == 0 {
		return nil, &SearchError{
			Stats: finishStats(s.stats, s.start, 0),
			Cause: fmt.Errorf("%w: every VSSC level fails the read-stability constraint", ErrInfeasible),
		}
	}
	s.chunks = make([]chunk, 0, len(rows)*len(feasVSSC))
	for _, rc := range rows {
		for li, vssc := range feasVSSC {
			s.chunks = append(s.chunks, chunk{rc: rc, vssc: vssc, level: li})
		}
	}
	s.stats.Chunks = len(s.chunks)
	s.workers = min(runtime.GOMAXPROCS(0), len(s.chunks))

	// The front seeds on EDP; a custom objective has no lower bound, so it
	// runs under the never-prune policy like DisableBounds.
	s.kind = objEDP
	if !pareto {
		s.kind = objectiveKind(opts.Objective)
	}
	s.prunes = !opts.DisableBounds && s.kind != objCustom

	var altp *array.FlavorTerms
	if opts.hybridOn() {
		s.groups, altp = opts.HybridGroups, &alt
	}
	var classes [][2]float64
	s.specClass = make([]int, len(specs))
	for i, sp := range specs {
		k := slices.Index(classes, [2]float64{sp.vddc, sp.vwl})
		if k < 0 {
			k = len(classes)
			classes = append(classes, [2]float64{sp.vddc, sp.vwl})
		}
		s.specClass[i] = k
	}
	s.nClass = len(classes)
	s.rep, s.nClasses = maskClasses(specs, s.specClass, opts.CapacityBits, s.groups, tech.LeakCell, alt.LeakCell)
	s.rails = make([]railEntry, len(feasVSSC)*s.nClass)
	for li, vssc := range feasVSSC {
		for k, cl := range classes {
			r := &s.rails[li*s.nClass+k]
			r.stage, r.err = s.evProto.Rails(cl[0], vssc, cl[1], altp)
		}
	}

	mSearchRuns.Inc()
	gSearchChunks.Set(float64(len(s.chunks)))
	name := "core.search"
	if pareto {
		name = "core.search.pareto"
	}
	s.span = obs.StartSpanCtx(ctx, name)
	s.span.Int("capacity_bits", int64(opts.CapacityBits))
	s.span.Str("method", opts.Method.String())
	s.span.Int("chunks", int64(len(s.chunks)))
	s.span.Int("workers", int64(s.workers))
	s.sctx, s.cancel = context.WithCancelCause(ctx)
	s.done = s.sctx.Done()
	return s, nil
}

// canceled polls the search context without locking it: ctx.Err takes the
// context's mutex, and the sweep polls once per unit and per N_pre row.
func (s *search) canceled() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// fail cancels the search with a model error at one point of chunk c and
// returns false, the processors' abort result.
func (s *search) fail(c chunk, npre, nwr int, err error) bool {
	s.cancel(fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
		c.rc.nr, c.rc.nc, npre, nwr, c.vssc, err))
	return false
}

// prepareUnit prepares the slot's Evaluator for unit u of chunk c from the
// shared rail stage, counting the prepare.
func (s *search) prepareUnit(slot *walkWorker, c chunk, u *searchUnit) error {
	slot.prepared++
	r := &s.rails[c.level*s.nClass+s.specClass[u.spec]]
	if r.err != nil {
		return r.err
	}
	base := wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: accessWidth(s.opts.W, c.rc.nc), Npre: 1, Nwr: 1,
		WLSegs: int(u.segs), Mux: int(u.mux)}
	return slot.ev.PrepareStaged(base, &r.stage, s.groups, s.specs[u.spec].mask)
}

// unitDesign materializes the Design identity of one point of a unit, with
// the hybrid fields stamped exactly as the evaluator stamps its Results so
// tie-break comparisons see identical values.
func (s *search) unitDesign(u *searchUnit, c chunk, width, npre, nwr int) array.Design {
	sp := &s.specs[u.spec]
	return array.Design{
		Geom: wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: width, Npre: npre, Nwr: nwr, WLSegs: int(u.segs), Mux: int(u.mux)},
		VDDC: sp.vddc, VSSC: c.vssc, VWL: sp.vwl, Groups: s.groups, GroupMask: sp.mask,
	}
}

// objBound reads the lower bound matching the built-in objective.
func (s *search) objBound(b array.Bound) float64 {
	switch s.kind {
	case objDelay:
		return b.DArray
	case objEnergy:
		return b.EArray
	case objArea:
		return b.Area
	case objPADP:
		return b.PADP
	}
	return b.EDP
}

// objLane returns the sweep lane matching the built-in objective.
func (s *search) objLane(sw *array.SweepBlock) []float64 {
	switch s.kind {
	case objDelay:
		return sw.DArray
	case objEnergy:
		return sw.EArray
	case objArea:
		return sw.Area
	case objPADP:
		return sw.PADP
	}
	return sw.EDP
}

// walkWorker is one worker's Evaluator, scratch buffers and partial
// reduction: the minimum (best, obj) or the front, by the search's reducer.
type walkWorker struct {
	ev      *array.Evaluator // re-prepared for each unit the sweep enters
	stats   SearchStats
	sweep   array.SweepBlock
	custom  []float64 // a custom objective's values over one swept range
	scratch array.Result
	best    *DesignPoint
	obj     float64
	front   front
	// prune is the Pareto reducer's prune front: reset to the frozen seed
	// front's lanes at the start of each chunk, it takes in every point the
	// chunk sweeps, and the chunk's prune tests read it alone.
	prune front
	// prepared counts the units this worker prepared, in the bound pass and
	// in the sweep.
	prepared int

	// The workers' slots are adjacent in one slice: the pad keeps this
	// slot's obj and best, read at every swept point, off the cache line
	// holding the next slot's stats, written at every swept range.
	_ [64]byte
}

// walk runs the search: the bound pass, the seed chunk swept alone to
// freeze the threshold, then the remaining chunks sharded over the workers.
// It ends the run span and returns the workers' partial reductions with the
// aggregated stats, or a *SearchError carrying them when the search aborted.
func (s *search) walk() ([]walkWorker, SearchStats, error) {
	defer s.cancel(nil)
	slots := make([]walkWorker, s.workers)
	for i := range slots {
		slots[i].ev, slots[i].obj = s.evProto.Clone(), math.Inf(1)
	}
	s.boundPass(slots)

	T, seed := math.Inf(1), -1
	var f0 front // the seed chunk's front, lanes only; empty while it is swept
	if ci, ok := s.pickSeed(); ok && s.processChunk(ci, T, &f0, &slots[0]) {
		// Freeze a copy of the lanes: the seed slot's front keeps
		// accumulating below, in place.
		seed, T = ci, slots[0].obj
		f0.reset(&slots[0].front)
	}
	jobs := make(chan int, len(s.chunks))
	for ci := range s.chunks {
		if ci != seed {
			jobs <- ci
		}
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := range slots {
		wg.Add(1)
		go func(slot *walkWorker) {
			defer wg.Done()
			for ci := range jobs {
				if !s.processChunk(ci, T, &f0, slot) {
					return
				}
			}
		}(&slots[w])
	}
	wg.Wait()

	st := s.stats
	prepared := 0
	for i := range slots {
		st.addWorker(slots[i].stats)
		prepared += slots[i].prepared
	}
	st = finishStats(st, s.start, s.workers)
	mUnitsPrepared.Add(int64(prepared))
	s.span.Int("evaluated", int64(st.Evaluated))
	s.span.Int("pruned_bound", int64(st.PrunedBound))
	s.span.Float("bound_efficiency", st.BoundEfficiency())
	s.span.Int("units_prepared", int64(prepared))
	s.span.Int("mask_classes", int64(s.nClasses))
	s.span.End()
	if cause := context.Cause(s.sctx); cause != nil {
		return nil, st, &SearchError{Stats: st, Cause: cause}
	}
	return slots, st, nil
}

// boundPass prepares every unit on its worker's Evaluator, bounds its full
// rectangle and records the result, striping chunks over workers. Under
// branch-and-bound a unit whose mask is not its class representative is
// recorded as unitEquiv without a Prepare. Unit construction is pure
// per-chunk work, so the stripe assignment cannot affect the result. A
// Prepare error cancels the search here, before any point is swept.
func (s *search) boundPass(slots []walkWorker) {
	s.units = make([][]searchUnit, len(s.chunks))
	var wg sync.WaitGroup
	for w := range slots {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := &slots[w]
			for ci := w; ci < len(s.chunks); ci += len(slots) {
				if s.canceled() {
					return
				}
				c := s.chunks[ci]
				width := accessWidth(s.opts.W, c.rc.nc)
				segsList := segCandidates(s.opts, c.rc.nc, width)
				muxList := muxCandidates(s.opts.Space, width)
				us := make([]searchUnit, 0, len(segsList)*len(muxList)*len(s.specs))
				for _, segs := range segsList {
					for _, mux := range muxList {
						base := wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: width, Npre: 1, Nwr: 1, WLSegs: segs, Mux: mux}
						status := unitLive
						if base.Validate() != nil || (s.opts.hybridOn() && c.rc.nr%s.opts.HybridGroups != 0) {
							status = unitGeom
						}
						for si, sp := range s.specs {
							u := searchUnit{spec: uint16(si), segs: uint8(segs), mux: int32(mux), status: status}
							if u.status == unitLive && !specRSNMOK(sp, c.vssc, s.cc, s.altCC, s.delta) {
								u.status = unitRSNM
							}
							if u.status == unitLive && s.prunes && s.rep[si] != u.spec {
								u.status = unitEquiv // the class representative is an earlier unit of this block
							}
							if u.status == unitLive {
								if err := s.boundUnit(slot, c, &u); err != nil {
									s.fail(c, 1, 1, err)
									return
								}
							}
							us = append(us, u)
						}
					}
				}
				s.units[ci] = us
			}
		}(w)
	}
	wg.Wait()
}

// boundUnit prepares a live unit and records the bounds over its full
// rectangle, demoting it to unitUnsettled when its rails cannot settle.
func (s *search) boundUnit(slot *walkWorker, c chunk, u *searchUnit) error {
	if err := s.prepareUnit(slot, c, u); err != nil {
		return err
	}
	b, err := slot.ev.BoundRect(1, s.opts.Space.NpreMax, 1, s.opts.Space.NwrMax)
	if err != nil {
		return err
	}
	u.obj, u.d, u.e = s.objBound(b), b.DArray, b.EArray
	if !b.RailsSettleInTime {
		u.status = unitUnsettled
	}
	return nil
}

// pickSeed returns the chunk containing the unit with the smallest objective
// bound among rail-feasible units (ties: lowest chunk index, then unit
// order) — the rectangle most likely to contain the global optimum, so the
// threshold frozen after sweeping it prunes aggressively everywhere else.
func (s *search) pickSeed() (int, bool) {
	best, ci := math.Inf(1), -1
	for i, us := range s.units {
		for _, u := range us {
			if u.status == unitLive && u.obj < best {
				best, ci = u.obj, i
			}
		}
	}
	return ci, ci >= 0
}

// processChunk sweeps one chunk's units into slot. Under branch-and-bound
// the minimum reducer prunes against min(T, chunk-local best) and the
// Pareto reducer against the chunk's prune front, which starts as the
// frozen seed front f0 and takes in every point the chunk sweeps; the
// chunk is processed by exactly one goroutine, so both chunk-local
// incumbents are deterministic. Per-point Pareto insertion consults the
// worker-local front only to avoid materializing dominated Results and
// never affects the counts. Returns false on cancellation or error.
func (s *search) processChunk(ci int, T float64, f0 *front, slot *walkWorker) bool {
	if s.canceled() {
		return false
	}
	c := s.chunks[ci]
	space := s.opts.Space
	pts := space.NpreMax * space.NwrMax
	st := &slot.stats

	chunkStart := time.Now()
	sp := obs.StartSpanCtx(s.sctx, "core.search.chunk")
	evals0, pruned0 := st.Evaluated, st.PrunedBound
	flushed := evals0
	// endChunk publishes the chunk's evaluation count to the live counter
	// and closes its trace span; it runs on every exit from the chunk,
	// including cancellation and error.
	endChunk := func(completed bool) bool {
		mSearchEvaluated.Add(int64(st.Evaluated - flushed))
		if completed {
			mSearchChunks.Inc()
			hChunkDur.Observe(time.Since(chunkStart))
		}
		sp.Int("nr", int64(c.rc.nr))
		sp.Int("nc", int64(c.rc.nc))
		sp.Float("vssc", c.vssc)
		sp.Int("evaluated", int64(st.Evaluated-evals0))
		sp.Int("pruned_bound", int64(st.PrunedBound-pruned0))
		sp.End()
		return completed
	}

	if s.pareto {
		slot.prune.reset(f0)
	}
	r := rowSweep{s: s, slot: slot, c: c, width: accessWidth(s.opts.W, c.rc.nc), T: T, local: math.Inf(1)}
	for ui := range s.units[ci] {
		u := &s.units[ci][ui]
		if s.canceled() {
			return endChunk(false)
		}
		switch u.status {
		case unitRSNM:
			st.SkippedRSNM += pts
			continue
		case unitGeom:
			st.SkippedGeom += pts
			continue
		case unitEquiv:
			// Its representative, the smallest equivalent mask, is the same
			// block's earlier unit: it swept the same values against a
			// threshold that has only fallen since, so no point here can
			// win or enter a front (DESIGN.md §13.7).
			st.PrunedBound += pts
			continue
		case unitUnsettled:
			// Rail settling is unit-invariant (§4): no point of the
			// rectangle is feasible. Branch-and-bound prunes it unevaluated;
			// full enumeration charges every point as an evaluated rail
			// failure, as the per-point model reports it.
			if s.prunes {
				st.PrunedBound += pts
			} else {
				st.Evaluated += pts
				st.SkippedRails += pts
			}
			continue
		}
		if s.prunes {
			var pruned bool
			if s.pareto {
				pruned = slot.prune.dominatesRect(u.d, u.e)
			} else {
				pruned = u.obj > min(T, r.local)
			}
			if pruned {
				st.PrunedBound += pts
				continue
			}
		}
		if err := s.prepareUnit(slot, c, u); err != nil {
			return endChunk(s.fail(c, 1, 1, err))
		}
		r.u = u
		for r.npre = 1; r.npre <= space.NpreMax; r.npre++ {
			if s.canceled() || !r.refine(1, space.NwrMax) {
				return endChunk(false)
			}
			// Flush the live counter once per N_pre row — cheap enough for
			// the hot loop, fresh enough for -progress.
			mSearchEvaluated.Add(int64(st.Evaluated - flushed))
			flushed = st.Evaluated
		}
	}
	return endChunk(true)
}

// rowSweep is the state of one chunk's sweep that the row bisection reads:
// the unit and N_pre row being swept, the frozen threshold and the
// chunk-local incumbent objective (the Pareto reducer's chunk-local state
// is the worker's prune front).
type rowSweep struct {
	s     *search
	slot  *walkWorker
	c     chunk
	width int
	T     float64
	local float64
	u     *searchUnit
	npre  int
}

// refine sweeps N_wr ∈ [lo, hi] of the current row into the worker's
// reduction. Branch-and-bound bisects the range: the bound's write-buffer
// current is taken at the range's high end, so its slack on a full row is
// ~NwrMax×; each halving tightens it 2×, down to bnbMinRun points.
// Recursion is sequential within the chunk, so the counts and the incumbent
// updates stay deterministic. The never-prune policy sweeps the row whole.
// Returns false on error.
func (r *rowSweep) refine(lo, hi int) bool {
	s, slot, ev := r.s, r.slot, r.slot.ev
	n := hi - lo + 1
	if s.prunes {
		rb, err := ev.BoundRect(r.npre, r.npre, lo, hi)
		if err != nil {
			return s.fail(r.c, r.npre, lo, err)
		}
		var pruned bool
		if s.pareto {
			pruned = slot.prune.dominatesRect(rb.DArray, rb.EArray)
		} else {
			pruned = s.objBound(rb) > min(r.T, r.local)
		}
		if pruned {
			slot.stats.PrunedBound += n
			return true
		}
		if n > bnbMinRun {
			mid := (lo + hi) / 2
			return r.refine(lo, mid) && r.refine(mid+1, hi)
		}
	}
	// A custom objective reads each point's Result, exactly once; the
	// built-in objectives and the front read the sweep lanes, bit-identical
	// to EvalInto.
	var lane []float64
	if s.kind == objCustom {
		lane = slot.custom[:0]
		for nwr := lo; nwr <= hi; nwr++ {
			if err := ev.EvalInto(r.npre, nwr, &slot.scratch); err != nil {
				return s.fail(r.c, r.npre, nwr, err)
			}
			lane = append(lane, s.opts.Objective(&slot.scratch))
		}
		slot.custom = lane
	} else {
		if err := ev.EvalSweep(r.npre, lo, hi, &slot.sweep); err != nil {
			return s.fail(r.c, r.npre, lo, err)
		}
		lane = s.objLane(&slot.sweep)[:n]
	}
	slot.stats.Evaluated += n
	for i, v := range lane {
		nwr := lo + i
		if s.pareto {
			if !r.paretoChanges(i, nwr) {
				continue
			}
		} else {
			if v < r.local {
				r.local = v
			}
			win := slot.best == nil || v < slot.obj
			if !win && v == slot.obj {
				win = designLess(s.unitDesign(r.u, r.c, r.width, r.npre, nwr), slot.best.Design)
			}
			if !win {
				continue
			}
		}
		// Materialize the point once it changes the reduction; the lane
		// value v matches its Result exactly.
		if err := ev.EvalInto(r.npre, nwr, &slot.scratch); err != nil {
			return s.fail(r.c, r.npre, nwr, err)
		}
		rc := slot.scratch
		if s.pareto {
			slot.front.insert(DesignPoint{Design: rc.Design, Result: &rc})
		} else {
			slot.best, slot.obj = &DesignPoint{Design: rc.Design, Result: &rc}, v
		}
	}
	return true
}

// paretoChanges folds swept point i (N_wr = nwr) of the current range into
// the prune front and reports whether inserting it would change the
// worker's front. A point some prune-front member weakly dominates without
// tying it is dominated, strictly in one coordinate, by an evaluated point:
// it is neither a front point nor an exact tie of one, and skips the
// worker-front check. Exact ties still go to the worker front, where the
// canonical design wins; the candidate design is built only for them.
func (r *rowSweep) paretoChanges(i, nwr int) bool {
	slot := r.slot
	d, e := slot.sweep.DArray[i], slot.sweep.EArray[i]
	if slot.prune.add(d, e) == dominated {
		return false
	}
	switch k, st := slot.front.locate(d, e); st {
	case dominated:
		return false
	case ties:
		return designLess(r.s.unitDesign(r.u, r.c, r.width, r.npre, nwr), slot.front.pts[k].Design)
	}
	return true
}
