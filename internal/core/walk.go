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
// policies. Branch-and-bound skips a unit's rectangle, or a sub-rectangle
// of it down to a single point, when a cheap certified lower bound
// (array.BoundRect for a unit, the bound kernel's array.SweepBound inside
// one) cannot beat the incumbent, charging the skipped points to
// SearchStats.PrunedBound. It
// also prepares, bounds and sweeps one group mask per equivalence class
// (DESIGN.md §13.7): masks sharing a rail class and an array.MaskKey
// prepare chunks that differ only in the GroupMask stamped on each Result,
// so the class's smallest mask answers for the others, whose rectangles
// are charged to PrunedBound unprepared. Full enumeration (the parity
// tests' Options.disableBounds) is the policy that never prunes: it walks
// every unit and sweeps every point.
//
// Determinism: SearchStats documents that every count is bit-identical for a
// given Options regardless of GOMAXPROCS, and the serving layer's catalog
// relies on byte-identical response bodies. Pruning against a racy
// cross-worker incumbent would make Evaluated/PrunedBound depend on
// scheduling, so pruning thresholds are derived only from
// schedule-independent state (DESIGN.md §11):
//
//  1. a bound pass prepares every unit (under branch-and-bound, every
//     class representative) on its worker's Evaluator and bounds its full
//     rectangle. It keeps a compact record (searchUnit) only of the units
//     it found settling, the ones the sweep can sweep or prune on a bound,
//     all chunks' records in one allocation, and counts the others per
//     chunk by kind (chunkUnits), which the sweep charges by count;
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
// read-only by all workers, and its mask terms from its spec's array.Mask,
// derived once per search (maskClasses). A worker's consecutive units of
// one (chunk, segmentation, mux) pair and rail class share its Evaluator's
// geometry stage, so their prepares only stamp their masks (DESIGN.md
// §13.6). The core.search.units_prepared counter and the run span's
// units_prepared attribute count the Prepares of both passes, memo hits
// included; core.search.bounds and the bounds attribute count the bounds of
// both.

// searchUnit is the bound pass's record of one live (chunk, segmentation,
// mux, group-mask) rectangle, one it prepared, bounded and found settling:
// which unit it is and the lower bounds over its full (N_pre, N_wr) range
// that the prune tests and pickSeed read. It holds no Evaluator: the sweep
// re-prepares its own for the units that survive the bound.
type searchUnit struct {
	spec uint16 // index into search.specs
	segs uint8
	mux  int32
	obj  float64 // objective bound (the Pareto search seeds on EDP)
	d, e float64 // DArray and EArray bounds (Pareto pruning)
}

// chunkUnits is the bound pass's account of one chunk: where its live
// records lie in search.units, in enumeration order, and how many of its
// other units fall in each kind the sweep only charges.
type chunkUnits struct {
	off, n    int32 // the live records: search.units[off : off+n]
	geom      int32 // invalid base geometry: charged to SkippedGeom
	rsnm      int32 // RSNM-infeasible mask class: charged to SkippedRSNM
	equiv     int32 // a mask equivalent to an earlier unit's (§13.7): charged to PrunedBound
	unsettled int32 // rails cannot settle in time: no point is feasible
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
	opts      *Options // normalized; the front's Objective is EDP, which it seeds on
	pareto    bool     // reducer: the energy-delay front instead of the minimum objective
	prunes    bool     // policy: branch-and-bound; false sweeps every point
	specs     []maskSpec
	groups    int // Design.Groups of every unit: 0, or HybridGroups when hybrid
	cc, altCC *CellChar
	delta     float64
	evProto   *array.Evaluator
	chunks    []chunk
	orgs      []rowOrg     // indexed by chunk.org
	units     []searchUnit // every chunk's live records, chunk by chunk
	tally     []chunkUnits // aligned with chunks

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
	levels := vsscCandidates(opts.Method, opts.Space)
	feasVSSC := levels[:0]
	for _, v := range levels {
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
	s.orgs = make([]rowOrg, len(rows))
	for ri, rc := range rows {
		width := accessWidth(opts.W, rc.nc)
		s.orgs[ri] = rowOrg{segs: segCandidates(&opts, rc.nc, width), mux: muxCandidates(opts.Space, width)}
		for li, vssc := range feasVSSC {
			s.chunks = append(s.chunks, chunk{rc: rc, vssc: vssc, level: int32(li), org: int32(ri)})
		}
	}
	s.stats.Chunks = len(s.chunks)
	s.workers = min(runtime.GOMAXPROCS(0), len(s.chunks))

	if pareto {
		opts.Objective = ObjectiveEDP // the front seeds on EDP
	}
	s.prunes = !opts.disableBounds

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
// context's mutex, and the sweep polls once per unit.
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
	r := &s.rails[int(c.level)*s.nClass+s.specClass[u.spec]]
	if r.err != nil {
		return r.err
	}
	base := wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: accessWidth(s.opts.W, c.rc.nc), Npre: 1, Nwr: 1,
		WLSegs: int(u.segs), Mux: int(u.mux)}
	return slot.ev.PrepareStaged(base, &r.stage, &s.specs[u.spec].m)
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

// objBound reads the lower bound matching the objective.
func (s *search) objBound(b *array.Bound) float64 {
	switch s.opts.Objective {
	case ObjectiveDelay:
		return b.DArray
	case ObjectiveEnergy:
		return b.EArray
	case ObjectiveArea:
		return b.Area
	case ObjectivePADP:
		return b.PADP
	}
	return b.EDP
}

// objLane returns the sweep lane matching the objective.
func (s *search) objLane(sw *array.SweepBlock) []float64 {
	switch s.opts.Objective {
	case ObjectiveDelay:
		return sw.DArray
	case ObjectiveEnergy:
		return sw.EArray
	case ObjectiveArea:
		return sw.Area
	case ObjectivePADP:
		return sw.PADP
	}
	return sw.EDP
}

// walkWorker is one worker's Evaluator, scratch buffers and partial
// reduction: the minimum or the front, by the search's reducer. Both track
// a point that changes them by its position until the end of its unit
// (endUnit), which builds the Results of the points still standing.
type walkWorker struct {
	ev    *array.Evaluator // re-prepared for each unit the sweep enters
	stats SearchStats
	sweep array.SweepBlock
	best  incumbent
	front front
	// won marks an incumbent that won during the unit being swept, whose
	// best.res still holds the Result of the point it beat; pending marks
	// members without a Result in front, which entered it during that unit.
	won, pending bool
	// spare holds the Results of the built members front dropped, which
	// nothing else refers to: endUnit builds pending members into them.
	spare []*array.Result
	// prune is the Pareto reducer's prune front: reset to the frozen seed
	// front's lanes at the start of each chunk, it takes in every point the
	// chunk sweeps, and the chunk's prune tests read it alone.
	prune front
	// prepared counts the units this worker prepared, in the bound pass and
	// in the sweep; bounds counts the bounds it computed, of units and of
	// their sub-rectangles.
	prepared int
	bounds   int
	// pubEvals and pubBounds are the Evaluated and bounds counts publish
	// last added to the live counters.
	pubEvals, pubBounds int

	// The workers' slots are adjacent in one slice: the pad keeps the
	// fields read at every swept point — the incumbent's objective best.obj,
	// and the lane headers of prune and front — off the cache line holding
	// the next slot's stats, written at every pruned or swept rectangle.
	_ [64]byte
}

// publish adds the worker's evaluations and bounds since its last publish
// to the live counters. The walker publishes once per swept unit and once
// per chunk, never from the bisection: the counters are cache lines every
// worker writes, and a search bounds millions of sub-rectangles.
func (w *walkWorker) publish() {
	mSearchEvaluated.Add(int64(w.stats.Evaluated - w.pubEvals))
	mSearchBounds.Add(int64(w.bounds - w.pubBounds))
	w.pubEvals, w.pubBounds = w.stats.Evaluated, w.bounds
}

// walk runs the search: the bound pass, the seed chunk swept alone to
// freeze the threshold, then the remaining chunks sharded over the workers.
// It ends the run span and returns the workers' partial reductions with the
// aggregated stats, or a *SearchError carrying them when the search aborted.
func (s *search) walk() ([]walkWorker, SearchStats, error) {
	defer s.cancel(nil)
	slots := make([]walkWorker, s.workers)
	for i := range slots {
		slots[i].ev, slots[i].best.obj = s.evProto.Clone(), math.Inf(1)
	}
	s.boundPass(slots)

	T, seed := math.Inf(1), -1
	var f0 front // the seed chunk's front, lanes only; empty while it is swept
	if ci, ok := s.pickSeed(); ok && s.processChunk(ci, T, &f0, &slots[0]) {
		// Freeze a copy of the lanes: the seed slot's front keeps
		// accumulating below, in place.
		seed, T = ci, slots[0].best.obj
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
	prepared, bounds := 0, 0
	for i := range slots {
		slots[i].publish() // what an aborted bound pass left
		st.addWorker(slots[i].stats)
		prepared += slots[i].prepared
		bounds += slots[i].bounds
	}
	st = finishStats(st, s.start, s.workers)
	mUnitsPrepared.Add(int64(prepared))
	s.span.Int("evaluated", int64(st.Evaluated))
	s.span.Int("pruned_bound", int64(st.PrunedBound))
	s.span.Float("bound_efficiency", st.BoundEfficiency())
	s.span.Int("units_prepared", int64(prepared))
	s.span.Int("mask_classes", int64(s.nClasses))
	s.span.Int("bounds", int64(bounds))
	s.span.End()
	if cause := context.Cause(s.sctx); cause != nil {
		return nil, st, &SearchError{Stats: st, Cause: cause}
	}
	return slots, st, nil
}

// boundPass prepares every unit on its worker's Evaluator, bounds its full
// rectangle and records the live ones, striping chunks over workers. All
// chunks' records share one allocation: chunk i owns a fixed region of
// s.units, sized by the most live units it can hold, and the units the pass
// only counts take no record. Unit construction is pure per-chunk work, so
// the stripe assignment cannot affect the result. A Prepare error cancels
// the search here, before any point is swept.
func (s *search) boundPass(slots []walkWorker) {
	s.tally = make([]chunkUnits, len(s.chunks))
	n := 0
	for ci, c := range s.chunks {
		s.tally[ci].off = int32(n)
		n += s.regionCap(c)
	}
	s.units = make([]searchUnit, n)
	var wg sync.WaitGroup
	for w := range slots {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := &slots[w]
			for ci := w; ci < len(s.chunks); ci += len(slots) {
				if s.canceled() || !s.boundChunk(slot, ci) {
					return
				}
				slot.publish()
			}
		}(w)
	}
	wg.Wait()
}

// regionCap is the most live records chunk c can hold: every (segmentation,
// mux) pair of its row organization times the units one pair prepares, one
// per mask class under branch-and-bound, else one per spec.
func (s *search) regionCap(c chunk) int {
	o := &s.orgs[c.org]
	perPair := len(s.specs)
	if s.prunes {
		perPair = s.nClasses
	}
	return len(o.segs) * len(o.mux) * perPair
}

// boundChunk runs the bound pass over chunk ci: it records each unit it
// prepares, bounds and finds settling in the chunk's region of s.units, and
// counts every other unit by kind. Under branch-and-bound a unit whose mask
// is not its class representative is counted without a Prepare. Returns
// false on error.
func (s *search) boundChunk(slot *walkWorker, ci int) bool {
	c, t := s.chunks[ci], s.tally[ci]
	o := &s.orgs[c.org]
	width := accessWidth(s.opts.W, c.rc.nc)
	// The three-index slice keeps the records inside the chunk's region.
	lo := int(t.off)
	us := s.units[lo : lo : lo+s.regionCap(c)]
	for _, segs := range o.segs {
		for _, mux := range o.mux {
			base := wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: width, Npre: 1, Nwr: 1, WLSegs: segs, Mux: mux}
			if base.Validate() != nil || (s.opts.hybridOn() && c.rc.nr%s.opts.HybridGroups != 0) {
				t.geom += int32(len(s.specs))
				continue
			}
			for si, sp := range s.specs {
				switch {
				case !specRSNMOK(sp, c.vssc, s.cc, s.altCC, s.delta):
					t.rsnm++
				case s.prunes && s.rep[si] != uint16(si):
					t.equiv++ // the class representative is an earlier unit of this pair
				default:
					u := searchUnit{spec: uint16(si), segs: uint8(segs), mux: int32(mux)}
					settles, err := s.boundUnit(slot, c, &u)
					if err != nil {
						return s.fail(c, 1, 1, err)
					}
					if !settles {
						t.unsettled++
						continue
					}
					us = append(us, u)
				}
			}
		}
	}
	t.n = int32(len(us))
	s.tally[ci] = t
	return true
}

// boundUnit prepares a unit and records the bounds over its full rectangle
// in u, reporting whether its rails settle in time.
func (s *search) boundUnit(slot *walkWorker, c chunk, u *searchUnit) (bool, error) {
	if err := s.prepareUnit(slot, c, u); err != nil {
		return false, err
	}
	b, err := slot.ev.BoundRect(1, s.opts.Space.NpreMax, 1, s.opts.Space.NwrMax)
	if err != nil {
		return false, err
	}
	slot.bounds++
	u.obj, u.d, u.e = s.objBound(&b), b.DArray, b.EArray
	return b.RailsSettleInTime, nil
}

// live returns chunk ci's live records.
func (s *search) live(ci int) []searchUnit {
	t := &s.tally[ci]
	return s.units[t.off : t.off+t.n]
}

// pickSeed returns the chunk containing the live unit with the smallest
// objective bound (ties: lowest chunk index, then unit order) — the
// rectangle most likely to contain the global optimum, so the threshold
// frozen after sweeping it prunes aggressively everywhere else.
func (s *search) pickSeed() (int, bool) {
	best, ci := math.Inf(1), -1
	for i := range s.tally {
		for _, u := range s.live(i) {
			if u.obj < best {
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
// incumbents are deterministic. The worker's own reduction never affects
// the counts. Returns false on cancellation or error.
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
	// endChunk publishes the chunk's counts to the live counters and closes
	// its trace span; it runs on every exit from the chunk, including
	// cancellation and error.
	endChunk := func(completed bool) bool {
		slot.publish()
		slot.ev.Flush()
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

	// The units the bound pass only counted never touch a reduction: charge
	// their rectangles by kind. An equivalent mask's representative, the
	// smallest of its class, is an earlier unit of the same (segmentation,
	// mux) pair with the same values, and the mask would come after it,
	// against a threshold no higher, so no point of the mask can win or
	// enter a front (DESIGN.md §13.7). Rail settling is unit-invariant (§4):
	// no point of an unsettled rectangle is feasible. Branch-and-bound
	// prunes it unevaluated; full enumeration charges every point as an
	// evaluated rail failure, as the per-point model reports it.
	t := &s.tally[ci]
	st.SkippedGeom += int(t.geom) * pts
	st.SkippedRSNM += int(t.rsnm) * pts
	st.PrunedBound += int(t.equiv) * pts
	if s.prunes {
		st.PrunedBound += int(t.unsettled) * pts
	} else {
		st.Evaluated += int(t.unsettled) * pts
		st.SkippedRails += int(t.unsettled) * pts
	}
	if s.pareto {
		slot.prune.reset(f0)
	}
	r := unitSweep{s: s, slot: slot, c: c, width: accessWidth(s.opts.W, c.rc.nc), T: T, local: math.Inf(1)}
	live := s.live(ci)
	for ui := range live {
		u := &live[ui]
		if s.canceled() {
			return endChunk(false)
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
		if !r.sweepUnit() || !s.endUnit(slot, c) {
			return endChunk(false)
		}
		slot.publish()
	}
	return endChunk(true)
}

// unitSweep is the state of one chunk's sweep that the rectangle bisection
// reads: the unit being swept, the frozen threshold and the chunk-local
// incumbent objective (the Pareto reducer's chunk-local state is the
// worker's prune front).
type unitSweep struct {
	s     *search
	slot  *walkWorker
	c     chunk
	width int
	T     float64
	local float64
	u     *searchUnit
}

// sweepUnit sweeps the prepared unit into the worker's reduction. The
// never-prune policy sweeps it row by row. Branch-and-bound bisects its
// rectangle, whose bound the bound pass already tested, filling the sweep
// lanes to NwrMax once for every bound and point below it. Returns false on
// error.
func (r *unitSweep) sweepUnit() bool {
	space := r.s.opts.Space
	if !r.s.prunes {
		for npre := 1; npre <= space.NpreMax; npre++ {
			if !r.sweep(npre, 1, space.NwrMax) {
				return false
			}
		}
		return true
	}
	r.slot.ev.FillLanes(space.NwrMax)
	return r.split(1, space.NpreMax, 1, space.NwrMax)
}

// refine sweeps the sub-rectangle N_pre ∈ [pLo, pHi], N_wr ∈ [wLo, wHi] of
// the unit into the worker's reduction: it prunes the rectangle when its
// bound cannot beat the chunk's threshold (strict, so exact ties are swept),
// and splits it otherwise. The bound comes from the bound kernel over the
// unit's sweep lanes (array.Evaluator.SweepBound). Returns false on error.
func (r *unitSweep) refine(pLo, pHi, wLo, wHi int) bool {
	s, slot := r.s, r.slot
	var b array.Bound
	slot.ev.SweepBound(pLo, pHi, wLo, wHi, &b)
	slot.bounds++
	var pruned bool
	if s.pareto {
		pruned = slot.prune.dominatesRect(b.DArray, b.EArray)
	} else {
		pruned = s.objBound(&b) > min(r.T, r.local)
	}
	if pruned {
		slot.stats.PrunedBound += (pHi - pLo + 1) * (wHi - wLo + 1)
		return true
	}
	return r.split(pLo, pHi, wLo, wHi)
}

// split refines the halves of a rectangle that survived its bound, lower
// half first: N_wr at ⌊(lo+hi)/2⌋ while the rectangle spans more than one
// N_wr column, then N_pre. The write-buffer drain C_BL·V_dd/(coef·N_wr·I_TG)
// is the bound's loose term, taken at the rectangle's high N_wr end with
// C_BL at its low end, so halving N_wr tightens it most (DESIGN.md §11). A
// single point that survived its own bound is swept. Recursion is
// sequential within the chunk, so the counts and the incumbent updates stay
// deterministic.
func (r *unitSweep) split(pLo, pHi, wLo, wHi int) bool {
	if wHi > wLo {
		mid := (wLo + wHi) / 2
		return r.refine(pLo, pHi, wLo, mid) && r.refine(pLo, pHi, mid+1, wHi)
	}
	if pHi > pLo {
		mid := (pLo + pHi) / 2
		return r.refine(pLo, mid, wLo, wHi) && r.refine(mid+1, pHi, wLo, wHi)
	}
	return r.sweep(pLo, wLo, wHi)
}

// sweep evaluates N_wr ∈ [lo, hi] of row npre of the unit and folds the
// points into the worker's reduction. The objective and the front read the
// sweep lanes, bit-identical to EvalInto. Returns false on error.
func (r *unitSweep) sweep(npre, lo, hi int) bool {
	s, slot := r.s, r.slot
	if err := slot.ev.EvalSweep(npre, lo, hi, &slot.sweep); err != nil {
		return s.fail(r.c, npre, lo, err)
	}
	n := hi - lo + 1
	slot.stats.Evaluated += n
	for i, v := range s.objLane(&slot.sweep)[:n] {
		nwr := lo + i
		if s.pareto {
			r.foldPareto(i, npre, nwr)
			continue
		}
		if v < r.local {
			r.local = v
		}
		if v > slot.best.obj {
			continue // a loss, decided without the design
		}
		if d := s.unitDesign(r.u, r.c, r.width, npre, nwr); slot.best.beats(v, d) {
			slot.best.obj, slot.best.design, slot.best.ok = v, d, true
			slot.won = true
		}
	}
	return true
}

// foldPareto folds swept point i, at (npre, nwr), of the current range into
// the prune front and the worker's front. A point some prune-front member
// weakly dominates without tying it is dominated, strictly in one
// coordinate, by an evaluated point: it is neither a front point nor an
// exact tie of one, and skips the worker front. Exact ties still go to the
// worker front, where the canonical design wins; the designs are built only
// for them. A point that enters the worker front is held by its position
// until endUnit.
func (r *unitSweep) foldPareto(i, npre, nwr int) {
	slot := r.slot
	d, e := slot.sweep.DArray[i], slot.sweep.EArray[i]
	if slot.prune.add(d, e) == dominated {
		return
	}
	f := &slot.front
	k, st := f.locate(d, e)
	if st == dominated || st == ties && !designLess(r.s.unitDesign(r.u, r.c, r.width, npre, nwr), r.memberDesign(f.pts[k])) {
		return
	}
	f.put(k, st, d, e, member{npre: int32(npre), nwr: int32(nwr)}, &slot.spare)
	slot.pending = true
}

// memberDesign returns the design of a worker-front member: its Result's,
// or the current unit's at its position while it has none.
func (r *unitSweep) memberDesign(m member) array.Design {
	if m.res != nil {
		return m.res.Design
	}
	return r.s.unitDesign(r.u, r.c, r.width, int(m.npre), int(m.nwr))
}

// endUnit builds the Results of the points that changed the worker's
// reduction during the unit just swept and still stand in it: the
// incumbent if it won there, into the Result of the point it beat, which
// nothing else refers to, and the front members without a Result, each
// into the Result of a member the front dropped (slot.spare) or, when none
// is left, its own allocation; no later growth of the front copies a
// Result. It runs while the Evaluator still holds the unit: a Result built
// later would need the unit prepared again. Returns false on error.
func (s *search) endUnit(slot *walkWorker, c chunk) bool {
	if slot.won {
		slot.won = false
		in := &slot.best
		if in.res == nil {
			in.res = new(array.Result)
		}
		npre, nwr := in.design.Geom.Npre, in.design.Geom.Nwr
		if err := slot.ev.EvalInto(npre, nwr, in.res); err != nil {
			return s.fail(c, npre, nwr, err)
		}
	}
	if slot.pending {
		slot.pending = false
		for i := range slot.front.pts {
			m := &slot.front.pts[i]
			if m.res != nil {
				continue
			}
			if n := len(slot.spare); n > 0 {
				m.res, slot.spare = slot.spare[n-1], slot.spare[:n-1]
			} else {
				m.res = new(array.Result)
			}
			if err := slot.ev.EvalInto(int(m.npre), int(m.nwr), m.res); err != nil {
				return s.fail(c, int(m.npre), int(m.nwr), err)
			}
		}
	}
	return true
}
