package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sramco/internal/array"
	"sramco/internal/obs"
	"sramco/internal/wire"
)

// This file is the branch-and-bound fast path of the exhaustive searchers.
//
// The search space factors into (chunk × segmentation × mux × mask) units,
// each an (N_pre, N_wr) rectangle sharing one Prepare. A cheap certified
// lower bound (array.BoundRect) over a unit — or a single N_pre row of it —
// lets the searcher skip the rectangle wholesale when even the bound cannot
// beat the incumbent, charging the skipped points to SearchStats.PrunedBound.
//
// Determinism: SearchStats documents that every count is bit-identical for a
// given Options regardless of GOMAXPROCS, and the serving layer's catalog
// relies on byte-identical response bodies. Pruning against a racy
// cross-worker incumbent would make Evaluated/PrunedBound depend on
// scheduling, so pruning thresholds are derived only from
// schedule-independent state (DESIGN.md §11):
//
//  1. a bound pass prepares every unit on its worker's Evaluator, bounds its
//     full rectangle and keeps only a compact record (searchUnit);
//  2. the unit with the best bound seeds the search: its chunk is swept
//     first, alone, and its best objective freezes the global threshold T;
//  3. the remaining chunks are sharded over workers, each pruning against
//     min(T, chunk-local best) — both independent of which worker runs the
//     chunk or in what order.
//
// Units that survive their record's bound are prepared again on the
// sweeping worker's Evaluator. Prepare is a pure function of the unit, so
// the re-prepared chunk is bit-identical to the one the bound pass saw.
// Every Prepare draws its rail-dependent currents from a rail stage built
// once per (rail class × VSSC level) before the bound pass and shared
// read-only by all workers.
//
// The cross-worker atomic best-so-far (bestSoFar) is still published on
// every improvement — observers (the run span, tests, a progress ticker)
// watch the search converge through it — but no pruning decision reads it.

// bnbMinRun is the N_wr range width below which the searcher sweeps the
// points instead of bisecting further: a BoundRect costs about an eighth of
// sweeping this many points, so bounding smaller ranges stops paying.
const bnbMinRun = 4

// atomicMin is a lock-free monotonically non-increasing float64 cell.
// Publish lowers it via CAS, so concurrent publishers can never regress the
// value; Load returns the current minimum.
type atomicMin struct{ bits atomic.Uint64 }

func newAtomicMin() *atomicMin {
	m := &atomicMin{}
	m.bits.Store(math.Float64bits(math.Inf(1)))
	return m
}

// Publish lowers the cell to v if v improves on the current value.
func (m *atomicMin) Publish(v float64) {
	for {
		old := m.bits.Load()
		if !(v < math.Float64frombits(old)) {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Load returns the current minimum (+Inf before any Publish).
func (m *atomicMin) Load() float64 { return math.Float64frombits(m.bits.Load()) }

// unitStatus classifies a searchUnit after the bound pass.
type unitStatus uint8

const (
	unitLive      unitStatus = iota // prepared and bounded: sweep or prune on the bound
	unitGeom                        // invalid base geometry: charged to SkippedGeom
	unitRSNM                        // RSNM-infeasible mask class: charged to SkippedRSNM
	unitUnsettled                   // rails cannot settle in time: charged to PrunedBound
)

// searchUnit is the bound pass's record of one (chunk, segmentation, mux,
// group-mask) rectangle: which unit it is, how the pass classified it, and
// the lower bounds over its full (N_pre, N_wr) range that the reducers and
// pickSeed read. It holds no Evaluator: the sweep re-prepares its own for
// the units that survive the bound. The skip classes mirror the unpruned
// path's in-loop counts.
type searchUnit struct {
	spec   uint16 // index into bnbSearch.specs
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

// bnbSearch carries the shared state of one bounded search run.
type bnbSearch struct {
	opts      *Options
	specs     []maskSpec
	groups    int // Design.Groups of every unit: 0, or HybridGroups when hybrid
	cc, altCC *CellChar
	delta     float64
	evProto   *array.Evaluator
	chunks    []chunk
	units     [][]searchUnit // aligned with chunks
	kind      objKind
	sctx      context.Context
	done      <-chan struct{} // sctx.Done(), captured once
	cancel    context.CancelCauseFunc
	bestSoFar *atomicMin

	// rails[level*nClass + specClass[spec]] is the rail stage of a spec at a
	// VSSC level. A rail class is the set of specs sharing (VDDC, VWL): a
	// hybrid search has at most three (pure base, pure alternate, mixed).
	rails     []railEntry
	specClass []int
	nClass    int
}

// newBnbSearch assembles a bounded search over chunks and builds its rail
// stages. The returned search owns a cancelable child of ctx; the caller
// must defer s.cancel(nil).
func (f *Framework) newBnbSearch(ctx context.Context, opts *Options, chunks []chunk,
	evProto *array.Evaluator, specs []maskSpec, alt array.FlavorTerms, cc, altCC *CellChar, kind objKind) *bnbSearch {

	sctx, cancel := context.WithCancelCause(ctx)
	s := &bnbSearch{
		opts: opts, specs: specs, cc: cc, altCC: altCC, delta: f.Delta,
		evProto: evProto, chunks: chunks, kind: kind,
		sctx: sctx, done: sctx.Done(), cancel: cancel, bestSoFar: newAtomicMin(),
	}
	var altp *array.FlavorTerms
	if opts.hybridOn() {
		s.groups, altp = opts.HybridGroups, &alt
	}
	var classes [][2]float64
	s.specClass = make([]int, len(specs))
	for i, sp := range specs {
		k := 0
		for k < len(classes) && classes[k] != [2]float64{sp.vddc, sp.vwl} {
			k++
		}
		if k == len(classes) {
			classes = append(classes, [2]float64{sp.vddc, sp.vwl})
		}
		s.specClass[i] = k
	}
	s.nClass = len(classes)
	levels := 0
	for _, c := range chunks {
		levels = max(levels, c.level+1)
	}
	s.rails = make([]railEntry, levels*s.nClass)
	built := make([]bool, levels)
	for _, c := range chunks {
		if built[c.level] {
			continue
		}
		built[c.level] = true
		for k, cl := range classes {
			r := &s.rails[c.level*s.nClass+k]
			r.stage, r.err = evProto.Rails(cl[0], c.vssc, cl[1], altp)
		}
	}
	return s
}

// canceled polls the search context without locking it: ctx.Err takes the
// context's mutex, and the sweep polls once per unit and per N_pre row.
func (s *bnbSearch) canceled() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// prepareUnit prepares ev for unit u of chunk c from the shared rail stage.
func (s *bnbSearch) prepareUnit(ev *array.Evaluator, c chunk, u *searchUnit) error {
	r := &s.rails[c.level*s.nClass+s.specClass[u.spec]]
	if r.err != nil {
		return r.err
	}
	base := wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: accessWidth(s.opts.W, c.rc.nc), Npre: 1, Nwr: 1,
		WLSegs: int(u.segs), Mux: int(u.mux)}
	return ev.PrepareStaged(base, &r.stage, s.groups, s.specs[u.spec].mask)
}

// unitDesign materializes the Design identity of one point of a unit, with
// the hybrid fields stamped exactly as the evaluator stamps its Results so
// tie-break comparisons see identical values.
func (s *bnbSearch) unitDesign(u *searchUnit, nr, nc, width, npre, nwr int, vssc float64) array.Design {
	sp := &s.specs[u.spec]
	d := array.Design{
		Geom: wire.Geometry{NR: nr, NC: nc, W: width, Npre: npre, Nwr: nwr, WLSegs: int(u.segs), Mux: int(u.mux)},
		VDDC: sp.vddc, VSSC: vssc, VWL: sp.vwl,
	}
	if s.opts.hybridOn() {
		d.Groups, d.GroupMask = s.opts.HybridGroups, sp.mask
	}
	return d
}

// objBound reads the lower bound matching the built-in objective.
func (s *bnbSearch) objBound(b array.Bound) float64 {
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
func (s *bnbSearch) objLane(sw *array.SweepBlock) []float64 {
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

// boundPass prepares every unit on one Evaluator per worker, bounds its
// full rectangle and records the result, striping chunks over workers.
// Unit construction is pure per-chunk work, so the stripe assignment cannot
// affect the result.
func (s *bnbSearch) boundPass(workers int) error {
	s.units = make([][]searchUnit, len(s.chunks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := s.evProto.Clone()
			for ci := w; ci < len(s.chunks); ci += workers {
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
							if status == unitLive && !specRSNMOK(sp, c.vssc, s.cc, s.altCC, s.delta) {
								u.status = unitRSNM
							}
							if u.status == unitLive {
								if err := s.boundUnit(ev, c, &u); err != nil {
									s.cancel(fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
										c.rc.nr, c.rc.nc, 1, 1, c.vssc, err))
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
	return context.Cause(s.sctx)
}

// boundUnit prepares a live unit and records the bounds over its full
// rectangle, demoting it to unitUnsettled when its rails cannot settle.
func (s *bnbSearch) boundUnit(ev *array.Evaluator, c chunk, u *searchUnit) error {
	if err := s.prepareUnit(ev, c, u); err != nil {
		return err
	}
	b, err := ev.BoundRect(1, s.opts.Space.NpreMax, 1, s.opts.Space.NwrMax)
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
func (s *bnbSearch) pickSeed() (int, bool) {
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

// bnbWorker accumulates one worker's partial view of the bounded search.
type bnbWorker struct {
	ev      *array.Evaluator // re-prepared for each unit that survives its bound
	best    *DesignPoint
	obj     float64
	stats   SearchStats
	sweep   array.SweepBlock
	scratch array.Result
}

// processChunk sweeps one chunk's units under the frozen threshold T,
// accumulating evaluations, prunes and the worker-local best into slot. The
// chunk is processed by exactly one goroutine, so the chunk-local incumbent
// that refines T is deterministic. Returns false on cancellation or error.
func (s *bnbSearch) processChunk(ci int, T float64, slot *bnbWorker) bool {
	c := s.chunks[ci]
	space := s.opts.Space
	width := accessWidth(s.opts.W, c.rc.nc)
	pts := space.NpreMax * space.NwrMax

	chunkStart := time.Now()
	sp := obs.StartSpanCtx(s.sctx, "core.search.chunk")
	evals0 := slot.stats.Evaluated
	pruned0 := slot.stats.PrunedBound
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
		sp.Int("pruned_bound", int64(slot.stats.PrunedBound-pruned0))
		sp.End()
	}

	local := math.Inf(1) // chunk-local incumbent objective
	ev := slot.ev
	for ui := range s.units[ci] {
		u := &s.units[ci][ui]
		if s.canceled() {
			endChunk(false)
			return false
		}
		switch u.status {
		case unitRSNM:
			slot.stats.SkippedRSNM += pts
			continue
		case unitGeom:
			slot.stats.SkippedGeom += pts
			continue
		case unitUnsettled:
			// Rail settling is chunk-invariant (§4): the whole rectangle is
			// infeasible and pruned without evaluation. (The unpruned path
			// evaluates these points and counts them under SkippedRails.)
			slot.stats.PrunedBound += pts
			continue
		}
		if u.obj > math.Min(T, local) {
			slot.stats.PrunedBound += pts
			continue
		}
		if err := s.prepareUnit(ev, c, u); err != nil {
			s.cancel(fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
				c.rc.nr, c.rc.nc, 1, 1, c.vssc, err))
			endChunk(false)
			return false
		}
		for npre := 1; npre <= space.NpreMax; npre++ {
			if s.canceled() {
				endChunk(false)
				return false
			}
			// Refine the row by bisection on the N_wr range. The bound's
			// write-buffer current is taken at the range's high end, so its
			// slack on a full row is ~NwrMax×; each halving tightens it 2×,
			// and a BoundRect is ~an eighth of sweeping the points it can
			// prune. Recursion is sequential within the chunk, so the counts
			// and the incumbent updates stay deterministic.
			var refine func(lo, hi int) bool
			refine = func(lo, hi int) bool {
				rb, err := ev.BoundRect(npre, npre, lo, hi)
				if err != nil {
					s.cancel(fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
						c.rc.nr, c.rc.nc, npre, lo, c.vssc, err))
					return false
				}
				if s.objBound(rb) > math.Min(T, local) {
					slot.stats.PrunedBound += hi - lo + 1
					return true
				}
				if hi-lo+1 > bnbMinRun {
					mid := (lo + hi) / 2
					return refine(lo, mid) && refine(mid+1, hi)
				}
				if err := ev.EvalSweep(npre, lo, hi, &slot.sweep); err != nil {
					s.cancel(fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
						c.rc.nr, c.rc.nc, npre, lo, c.vssc, err))
					return false
				}
				slot.stats.Evaluated += hi - lo + 1
				lane := s.objLane(&slot.sweep)[:hi-lo+1]
				for i, v := range lane {
					if v < local {
						local = v
					}
					nwr := lo + i
					win := slot.best == nil || v < slot.obj
					if !win && v == slot.obj {
						cand := s.unitDesign(u, c.rc.nr, c.rc.nc, width, npre, nwr, c.vssc)
						win = designLess(cand, slot.best.Design)
					}
					if win {
						// Materialize the winning point once; the sweep lanes
						// are bit-identical to EvalInto, so the stored
						// objective v matches the Result exactly.
						if err := ev.EvalInto(npre, nwr, &slot.scratch); err != nil {
							s.cancel(fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
								c.rc.nr, c.rc.nc, npre, nwr, c.vssc, err))
							return false
						}
						rc := slot.scratch
						slot.best, slot.obj = &DesignPoint{Design: rc.Design, Result: &rc}, v
						s.bestSoFar.Publish(v)
					}
				}
				return true
			}
			if !refine(1, space.NwrMax) {
				endChunk(false)
				return false
			}
			mSearchEvaluated.Add(int64(slot.stats.Evaluated - flushed))
			flushed = slot.stats.Evaluated
		}
	}
	endChunk(true)
	return true
}

// optimizeBounded is OptimizeContext's branch-and-bound path: bound pass →
// seed sweep → frozen-threshold parallel sweep → deterministic reduction.
// It owns the run from after the run-span setup through the final Optimum.
func (f *Framework) optimizeBounded(runSpan obs.Span, start time.Time, opts *Options,
	stats SearchStats, chunks []chunk, workers int, evProto *array.Evaluator,
	specs []maskSpec, alt array.FlavorTerms, cc, altCC *CellChar, ctx context.Context) (*Optimum, error) {

	s := f.newBnbSearch(ctx, opts, chunks, evProto, specs, alt, cc, altCC, objectiveKind(opts.Objective))
	defer s.cancel(nil)
	sctx := s.sctx

	finish := func(slots []bnbWorker) (SearchStats, *DesignPoint, float64) {
		var best *DesignPoint
		obj := math.Inf(1)
		for i := range slots {
			stats.addWorker(slots[i].stats)
			if slots[i].best != nil && betterPoint(slots[i].best, slots[i].obj, best, obj) {
				best, obj = slots[i].best, slots[i].obj
			}
		}
		st := finishStats(stats, start, workers)
		runSpan.Int("evaluated", int64(st.Evaluated))
		runSpan.Int("pruned_bound", int64(st.PrunedBound))
		runSpan.Float("bound_efficiency", st.BoundEfficiency())
		runSpan.End()
		return st, best, obj
	}

	slots := make([]bnbWorker, workers)
	for i := range slots {
		slots[i].ev, slots[i].obj = evProto.Clone(), math.Inf(1)
	}

	if err := s.boundPass(workers); err != nil {
		st, _, _ := finish(slots)
		return nil, &SearchError{Stats: st, Cause: err}
	}

	// Seed: sweep the most promising chunk alone and freeze the global
	// pruning threshold at its best objective.
	T := math.Inf(1)
	seedCi := -1
	if ci, ok := s.pickSeed(); ok {
		seedCi = ci
		if !s.processChunk(ci, T, &slots[0]) {
			st, _, _ := finish(slots)
			return nil, &SearchError{Stats: st, Cause: context.Cause(sctx)}
		}
		T = slots[0].obj
	}

	jobs := make(chan int, len(chunks))
	for ci := range chunks {
		if ci != seedCi {
			jobs <- ci
		}
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot *bnbWorker) {
			defer wg.Done()
			for ci := range jobs {
				if !s.processChunk(ci, T, slot) {
					return
				}
			}
		}(&slots[w])
	}
	wg.Wait()

	st, best, _ := finish(slots)
	if cause := context.Cause(sctx); cause != nil {
		return nil, &SearchError{Stats: st, Cause: cause}
	}
	if best == nil {
		return nil, fmt.Errorf("core: %w for %d bits (all %d candidates rejected)",
			ErrInfeasible, opts.CapacityBits, st.SkippedTotal()+st.PrunedBound)
	}
	return &Optimum{Best: *best, Evaluated: st.Evaluated, Skipped: st.SkippedTotal(), Stats: st}, nil
}

// frontDominatesRect reports whether a front member proves every point of a
// rectangle with metric lower bounds (bD, bE) redundant: some q is ≤ the
// bound in both metrics and strictly below in at least one. Strictness in
// one coordinate protects exact metric ties, whose canonical replacement in
// insertPareto must still see the candidate.
func frontDominatesRect(front []DesignPoint, bD, bE float64) bool {
	for _, q := range front {
		qd, qe := q.Result.DArray, q.Result.EArray
		if (qd <= bD && qe < bE) || (qd < bD && qe <= bE) {
			return true
		}
	}
	return false
}

// paretoWouldChange mirrors insertPareto's decision for a point with metrics
// (d, e) and design cand without materializing its Result: false when an
// existing member weakly dominates it (and an exact tie would keep the
// canonical incumbent), true when inserting would alter the front.
func paretoWouldChange(front []DesignPoint, d, e float64, cand array.Design) bool {
	for _, q := range front {
		qd, qe := q.Result.DArray, q.Result.EArray
		if qd == d && qe == e {
			return designLess(cand, q.Design)
		}
		if qd <= d && qe <= e {
			return false
		}
	}
	return true
}

// bnbParetoWorker accumulates one worker's partial frontier.
type bnbParetoWorker struct {
	ev      *array.Evaluator // re-prepared for each unit that survives its bound
	front   []DesignPoint
	stats   SearchStats
	sweep   array.SweepBlock
	scratch array.Result
}

// processParetoChunk sweeps one chunk for the Pareto search, pruning
// rectangles that the frozen seed front f0 proves redundant. Per-point
// insertion decisions consult the worker-local front only to avoid
// materializing dominated Results — they never affect the counts, so stats
// stay schedule-independent.
func (s *bnbSearch) processParetoChunk(ci int, f0 []DesignPoint, slot *bnbParetoWorker) bool {
	c := s.chunks[ci]
	space := s.opts.Space
	width := accessWidth(s.opts.W, c.rc.nc)
	pts := space.NpreMax * space.NwrMax

	chunkStart := time.Now()
	sp := obs.StartSpanCtx(s.sctx, "core.search.chunk")
	evals0 := slot.stats.Evaluated
	pruned0 := slot.stats.PrunedBound
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
		sp.Int("pruned_bound", int64(slot.stats.PrunedBound-pruned0))
		sp.End()
	}

	ev := slot.ev
	for ui := range s.units[ci] {
		u := &s.units[ci][ui]
		if s.canceled() {
			endChunk(false)
			return false
		}
		switch u.status {
		case unitRSNM:
			slot.stats.SkippedRSNM += pts
			continue
		case unitGeom:
			slot.stats.SkippedGeom += pts
			continue
		case unitUnsettled:
			slot.stats.PrunedBound += pts
			continue
		}
		if frontDominatesRect(f0, u.d, u.e) {
			slot.stats.PrunedBound += pts
			continue
		}
		if err := s.prepareUnit(ev, c, u); err != nil {
			s.cancel(fmt.Errorf("core: pareto evaluating n_r=%d N_pre=%d N_wr=%d VSSC=%g: %w",
				c.rc.nr, 1, 1, c.vssc, err))
			endChunk(false)
			return false
		}
		for npre := 1; npre <= space.NpreMax; npre++ {
			if s.canceled() {
				endChunk(false)
				return false
			}
			// Same N_wr bisection as the scalar searcher: halving the range
			// tightens the bound's write-buffer-current slack 2× per level.
			var refine func(lo, hi int) bool
			refine = func(lo, hi int) bool {
				rb, err := ev.BoundRect(npre, npre, lo, hi)
				if err != nil {
					s.cancel(fmt.Errorf("core: pareto evaluating n_r=%d N_pre=%d N_wr=%d VSSC=%g: %w",
						c.rc.nr, npre, lo, c.vssc, err))
					return false
				}
				if frontDominatesRect(f0, rb.DArray, rb.EArray) {
					slot.stats.PrunedBound += hi - lo + 1
					return true
				}
				if hi-lo+1 > bnbMinRun {
					mid := (lo + hi) / 2
					return refine(lo, mid) && refine(mid+1, hi)
				}
				if err := ev.EvalSweep(npre, lo, hi, &slot.sweep); err != nil {
					s.cancel(fmt.Errorf("core: pareto evaluating n_r=%d N_pre=%d N_wr=%d VSSC=%g: %w",
						c.rc.nr, npre, lo, c.vssc, err))
					return false
				}
				slot.stats.Evaluated += hi - lo + 1
				for i := 0; i < hi-lo+1; i++ {
					d, e := slot.sweep.DArray[i], slot.sweep.EArray[i]
					nwr := lo + i
					cand := s.unitDesign(u, c.rc.nr, c.rc.nc, width, npre, nwr, c.vssc)
					if !paretoWouldChange(slot.front, d, e, cand) {
						continue
					}
					if err := ev.EvalInto(npre, nwr, &slot.scratch); err != nil {
						s.cancel(fmt.Errorf("core: pareto evaluating n_r=%d N_pre=%d N_wr=%d VSSC=%g: %w",
							c.rc.nr, npre, nwr, c.vssc, err))
						return false
					}
					rc := slot.scratch
					slot.front = insertPareto(slot.front, DesignPoint{Design: rc.Design, Result: &rc})
				}
				return true
			}
			if !refine(1, space.NwrMax) {
				endChunk(false)
				return false
			}
			mSearchEvaluated.Add(int64(slot.stats.Evaluated - flushed))
			flushed = slot.stats.Evaluated
		}
	}
	endChunk(true)
	return true
}

// paretoBounded is ParetoSearchContext's branch-and-bound path. The seed
// chunk is swept in full and its frontier frozen as f0; the remaining
// chunks prune any rectangle some f0 member dominates. A pruned rectangle
// can only contain points that were globally dominated anyway (domination is
// transitive through the bound), so the merged frontier is bit-identical to
// the full enumeration's.
func (f *Framework) paretoBounded(runSpan obs.Span, start time.Time, opts *Options,
	stats SearchStats, chunks []chunk, workers int, evProto *array.Evaluator,
	specs []maskSpec, alt array.FlavorTerms, cc, altCC *CellChar, ctx context.Context) (*ParetoResult, error) {

	s := f.newBnbSearch(ctx, opts, chunks, evProto, specs, alt, cc, altCC, objEDP)
	defer s.cancel(nil)
	sctx := s.sctx

	slots := make([]bnbParetoWorker, workers)
	for i := range slots {
		slots[i].ev = evProto.Clone()
	}
	finish := func() SearchStats {
		for i := range slots {
			stats.addWorker(slots[i].stats)
		}
		st := finishStats(stats, start, workers)
		runSpan.Int("evaluated", int64(st.Evaluated))
		runSpan.Int("pruned_bound", int64(st.PrunedBound))
		runSpan.Float("bound_efficiency", st.BoundEfficiency())
		runSpan.End()
		return st
	}

	if err := s.boundPass(workers); err != nil {
		return nil, &SearchError{Stats: finish(), Cause: err}
	}

	var f0 []DesignPoint
	seedCi := -1
	if ci, ok := s.pickSeed(); ok {
		seedCi = ci
		if !s.processParetoChunk(ci, nil, &slots[0]) {
			return nil, &SearchError{Stats: finish(), Cause: context.Cause(sctx)}
		}
		// Freeze a copy: insertPareto mutates fronts in place, and the seed
		// slot keeps accumulating in phase 2.
		f0 = append([]DesignPoint(nil), slots[0].front...)
	}

	jobs := make(chan int, len(chunks))
	for ci := range chunks {
		if ci != seedCi {
			jobs <- ci
		}
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot *bnbParetoWorker) {
			defer wg.Done()
			for ci := range jobs {
				if !s.processParetoChunk(ci, f0, slot) {
					return
				}
			}
		}(&slots[w])
	}
	wg.Wait()

	st := finish()
	if cause := context.Cause(sctx); cause != nil {
		return nil, &SearchError{Stats: st, Cause: cause}
	}
	var candidates []DesignPoint
	for i := range slots {
		candidates = append(candidates, slots[i].front...)
	}
	return mergePareto(candidates, st, opts.CapacityBits)
}
