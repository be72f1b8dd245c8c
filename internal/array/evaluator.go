package array

import (
	"fmt"
	"math"

	"sramco/internal/periph"
	"sramco/internal/wire"
)

// Evaluator is the chunk-amortized form of EvaluateHybrid, built for the
// search hot path. The paper's exhaustive search fixes a (geometry base, assist
// rails) chunk and sweeps only the precharger and write-buffer fin counts
// inside it; every Table-1 wire capacitance except the N_pre/N_wr drain
// terms, both rail components, the WL read/write and COL components, the
// decoder/driver blocks, the sense amplifier, and the cell write
// delay/energy are invariant across that inner sweep. The Evaluator computes
// them once per prepare and lets EvalInto fill in only the per-point terms
// and the Eq. (2)-(5) totals.
//
// EvaluateHybrid is this engine on a fresh Evaluator: validate,
// PrepareHybrid, EvalInto. So for any design,
//
//	EvaluateHybrid(t, d, act, alt)  ==  ev.PrepareHybrid(d.Geom, rails, h); ev.EvalInto(Npre, Nwr, r)
//
// field for field, at the == level — not within a tolerance — however
// ev's memo was left by earlier chunks. The property test in
// evaluator_test.go checks both against oracleEvalInto, the point model
// written out expression by expression.
//
// A prepare is staged (DESIGN.md §13.6): technology constants are computed
// once at construction; the rail-dependent currents live in a RailStage
// that callers may build once and share; the geometry stage, every chunk
// term that reads no group mask, is memoized on (base geometry, rail values,
// group count), and its decoder blocks on (n_r, n_c, W); and a Mask carries
// the terms of one group assignment, which the last step, the mask stamp,
// writes in. PrepareHybrid (and Prepare, its single-flavor call) builds a
// rail stage and a Mask on its frame and calls PrepareStaged, so there is
// exactly one prepare path.
//
// An Evaluator is NOT safe for concurrent use: Prepare mutates its memo
// state. Give each goroutine its own Evaluator by calling Clone; clones
// share the read-only *Tech and revalidate nothing. A RailStage is
// immutable and may be shared by any number of Evaluators built from the
// same Tech.
type Evaluator struct {
	tech *Tech
	act  Activity

	// Activity-derived constants (set at construction).
	alpha, beta, oneMinusBeta float64

	// Technology constants (set at construction): the rail-independent
	// peripheral currents and the fixed-size WL/COL superbuffer.
	iCol     float64 // coefCOL·27·ION,pfet
	iTG      float64 // ION of one write transmission gate fin
	ionP     float64 // ION,pfet per fin (precharger)
	driveDrv periph.DriverResult

	// Decoder memo: the row and column decoders depend only on (n_r, n_c, W).
	decOK              bool
	decNR, decNC, decW int
	rowDec, colDec     periph.DecoderResult

	// Geometry memo: the key of the geometry stage the Evaluator holds, its
	// base geometry (N_pre = N_wr = 1), the bits of its rails and its group
	// count (hGroups). staged marks the stage valid, prepared a mask stamped
	// on it.
	staged, prepared bool
	vddc, vssc, vwl  float64
	geom             wire.Geometry // base geometry stamped into results

	// Chunk-invariant Table-2 components, ready to copy into each Result.
	parts Breakdown

	// Per-point capacitance builders (Table 1 factorization; see wire.BLFixed
	// and wire.COLFixed).
	muxed   bool
	blFixed float64 // n_r(C_height + C_dn)
	cdp     float64 // C_dp
	sumCd   float64 // C_dn + C_dp
	colBase float64 // n_c·C_width + 27(C_dn + C_dp), muxed only
	colW    float64 // 2·W, muxed only
	sumCg   float64 // C_gn + C_gp

	// Per-point current denominators and voltages.
	iRead   float64 // cell read current at (VDDC, VSSC)
	dvBLRd  float64 // VDDC - VSSC: bitline swing voltage of the read component
	vdd     float64
	deltaVS float64

	// Partial Table-3 delay sums.
	dReadRow  float64 // DRowDec + DRowDrv + DWLRead
	dColBase  float64 // DColDec + DColDrv
	dWriteRow float64 // DRowDec + DRowDrv + DWLWrite (fully invariant)

	// Partial Table-3 energy sums and accounting multipliers.
	eReadBase  float64 // ERowDec + ERowDrv + EWLRead
	eWriteBase float64 // ERowDec + ERowDrv + dcdc·EWLWrite + EColDec + EColDrv
	saE        float64 // saMult·ESenseAmp
	railE      float64 // dcdc·(ECVDD + ECVSS)
	wrCellE    float64 // wrMult·EWriteCell
	blRdMult   float64
	preRdMult  float64
	wrMult     float64
	allCols    bool
	wMult      float64 // W, AllColumns precharge-write weighting
	acMinusW   float64 // activeCols - W

	// Eq. (3)-(5) constants.
	leakCoef float64 // Bits·LeakCell (hybrid: per-group weighted sum)

	// Output-mux (sense-amp sharing) terms. All are exact zeros when the
	// geometry shares no sense amps, so appending them to the existing
	// per-point chains leaves the degenerate results bit-identical.
	muxRatio  int     // normalized sharing ratio (≥ 1)
	blMuxCd   float64 // extra bitline drain cap of the mux TG stack
	dMuxExtra float64 // DMuxSel, appended to the read delay
	eMuxExtra float64 // EMuxSel, appended to the read energy

	// Layout-area terms (wire.Area factorization).
	area0, areaPre, areaWr float64

	// Hybrid per-row-group flavor state (hGroups == 0 when the chunk was
	// prepared for a single global flavor). Group 0 is nearest the sense
	// amps; hBLFix[g] is the effective fixed bitline capacitance seen when
	// group g's cell drives the read (its rows plus the wire up to it), with
	// hBLFix[G-1] exactly blFixed so a uniform mask reproduces the global
	// evaluation bit-identically. hNear lists the (at most two) lower groups
	// that can set the worst-case delay (see hybridBLDelay).
	hGroups int
	hMask   uint32
	hIRead  [MaxGroups]float64
	hBLFix  [MaxGroups]float64
	hNear   [2]int
	hNearN  int

	// §4 rail-settling feasibility (invariant: depends only on rails/WL).
	settles bool

	// Struct-of-arrays lanes of the N_wr-dependent per-point terms, filled
	// lazily by ensureSoA (index i ↔ N_wr = i+1) and invalidated by the
	// geometry stage; they read no mask, so a stamp keeps them. EvalSweep's
	// inner loop reads them instead of recomputing the column/write-buffer
	// terms per point.
	soaN     int
	soaBL    []float64 // N_wr term of C_BL: fnwr·ΣCd (muxed: (2·fnwr)·ΣCd)
	soaDCOL  []float64 // column-select delay component
	soaECOL  []float64 // column-select energy component
	soaIBLwr []float64 // write-buffer drain current coefBLwr·fnwr·I_TG
	soaBwK   []float64 // V_dd/I_BLwr, the bound kernel's write-bitline delay per farad

	// The bound kernel's unit constants (bound.go), folded on first use
	// after each Prepare.
	bk boundConsts

	// evals counts the points EvalSweep evaluated since the last publish to
	// the array.evaluations counter (Flush, or the next prepare).
	evals int
}

// NewEvaluator validates the technology and activity once and returns an
// unprepared Evaluator. The returned Evaluator (and its clones) never
// revalidates t, so t must not be mutated while evaluators built from it are
// alive.
func NewEvaluator(t *Tech, act Activity) (*Evaluator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := act.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{}
	e.init(t, act)
	return e, nil
}

// init is the unchecked constructor shared by NewEvaluator and
// EvaluateHybrid (which validates the design between the technology and the
// activity). It computes the technology constants every Prepare reuses.
func (e *Evaluator) init(t *Tech, act Activity) {
	e.tech = t
	e.act = act
	e.alpha = act.Alpha
	e.beta = act.Beta
	e.oneMinusBeta = 1 - act.Beta
	e.vdd = t.Vdd
	e.deltaVS = t.DeltaVS
	p := t.Periph
	e.ionP = p.IONPfet()
	e.iTG = p.IONTG()
	e.iCol = coefCOL * driveFins * e.ionP
	e.driveDrv = p.Driver(driveFins)
}

// Clone returns an unprepared Evaluator sharing the validated *Tech. Each
// search worker should own a clone; the shared Tech is read-only. The clone
// keeps e's geometry memo, whose terms are plain values it copies, so its
// first prepare on e's key stamps only the mask; it drops the sweep lanes
// and the bound constants.
func (e *Evaluator) Clone() *Evaluator {
	c := *e
	c.prepared = false
	c.soaN = 0
	c.soaBL, c.soaDCOL, c.soaECOL, c.soaIBLwr, c.soaBwK = nil, nil, nil, nil, nil
	c.bk.ok = false
	c.evals = 0
	return &c
}

// Flush publishes the evaluations EvalSweep counted since the last Flush or
// Prepare to the array.evaluations counter. The sweep counts per Evaluator
// instead of per call, so a searcher flushes when it finishes a chunk; the
// next Prepare flushes too.
func (e *Evaluator) Flush() {
	if e.evals != 0 {
		mEvals.Add(int64(e.evals))
		e.evals = 0
	}
}

// RailStage is the rail stage of a staged prepare: every quantity that
// depends only on the assist rails (VDDC, VSSC, VWL) and the flavor pair —
// the unit currents of the CVDD, CVSS and WL drivers, and each flavor's
// cell read current, write delay and write energy. These are device I–V
// evaluations, by far the costliest part of a prepare, yet a search shares
// one set of rails across every organization, segmentation, mux ratio and
// group mask of a VSSC level. Build the stage once with Evaluator.Rails and
// pass it to PrepareStaged for each such unit. A RailStage is immutable:
// any number of goroutines may prepare from it.
type RailStage struct {
	tech              *Tech
	vddc, vssc, vwl   float64
	iCVDD, iCVSS, iWL float64 // rail-driver unit currents
	// The cell terms of the flavor pair, indexed by a group's mask bit:
	// [0] the base flavor (Tech), [1] the alternate one (hasAlt).
	iRead, wrDelay, wrEnergy [2]float64
	hasAlt                   bool
}

// Rails validates the assist rails against the technology and builds their
// rail stage. alt, when non-nil, adds the alternate flavor's terms so the
// stage can prepare hybrid units; nil builds a base-flavor-only stage.
func (e *Evaluator) Rails(vddc, vssc, vwl float64, alt *FlavorTerms) (RailStage, error) {
	t := e.tech
	if t == nil {
		return RailStage{}, fmt.Errorf("array: Prepare on zero Evaluator (use NewEvaluator)")
	}
	if alt != nil {
		if err := alt.Validate(); err != nil {
			return RailStage{}, err
		}
	}
	if err := validateRails(t.Vdd, vddc, vssc, vwl); err != nil {
		return RailStage{}, err
	}
	p := t.Periph
	rs := RailStage{
		tech: t, vddc: vddc, vssc: vssc, vwl: vwl,
		iCVDD: p.ICVDD(vddc), iCVSS: p.ICVSS(vssc), iWL: p.IWL(vwl),
	}
	rs.cell(0, &t.FlavorTerms)
	if alt != nil {
		rs.hasAlt = true
		rs.cell(1, alt)
	}
	return rs, nil
}

// cell fills flavor f's cell terms at the stage's rails.
func (rs *RailStage) cell(f int, ft *FlavorTerms) {
	rs.iRead[f] = ft.IRead(rs.vddc, rs.vssc)
	rs.wrDelay[f] = ft.WriteDelayCell(rs.vwl)
	rs.wrEnergy[f] = ft.WriteEnergyCell
}

// Prepare is PrepareHybrid for a single global flavor.
func (e *Evaluator) Prepare(g wire.Geometry, vddc, vssc, vwl float64) error {
	return e.PrepareHybrid(g, vddc, vssc, vwl, Hybrid{})
}

// PrepareHybrid fixes the chunk: the geometry base (N_pre and N_wr in g are
// ignored), the assist rails and the per-row-group flavor assignment
// (Groups, Mask, alternate flavor terms), computing everything invariant
// across the inner (N_pre, N_wr) sweep. Groups ≤ 1 selects the single
// global flavor (Mask must then be zero, and Alt is ignored). It validates
// the rails against the technology and the base geometry structurally
// (with N_pre = N_wr = 1, since validity of the base does not depend on the
// swept fin counts), and rejects a non-positive read current. It builds the
// rail stage and the Mask on its frame on every call (the geometry stage is
// memoized on the rail values); a caller preparing many units on the same
// rails should build the stage once with Rails, each Mask once with
// NewMask, and call PrepareStaged instead. A failed prepare leaves the
// Evaluator unprepared.
func (e *Evaluator) PrepareHybrid(g wire.Geometry, vddc, vssc, vwl float64, h Hybrid) error {
	if e.tech == nil {
		return fmt.Errorf("array: Prepare on zero Evaluator (use NewEvaluator)")
	}
	var alt *FlavorTerms
	if h.Groups > 1 {
		alt = &h.Alt
	} else {
		if h.Mask != 0 {
			e.prepared = false
			return fmt.Errorf("array: GroupMask=%#x requires Groups ≥ 2", h.Mask)
		}
		h.Groups = 0
	}
	rs, err := e.Rails(vddc, vssc, vwl, alt)
	if err != nil {
		e.prepared = false
		return err
	}
	m := NewMask(g.Bits(), h.Groups, h.Mask, e.tech.LeakCell, h.Alt.LeakCell)
	return e.PrepareStaged(g, &rs, &m)
}

// decoders returns the row and column decoder blocks of g, recomputing them
// only when (n_r, n_c, W) — everything periph.RowDecoder and
// periph.ColumnDecoder read — changes.
func (e *Evaluator) decoders(g wire.Geometry) (row, col periph.DecoderResult) {
	if !e.decOK || g.NR != e.decNR || g.NC != e.decNC || g.W != e.decW {
		p := e.tech.Periph
		e.rowDec, e.colDec = p.RowDecoder(g), p.ColumnDecoder(g)
		e.decNR, e.decNC, e.decW, e.decOK = g.NR, g.NC, g.W, true
	}
	return e.rowDec, e.colDec
}

// PrepareStaged is the one prepare path: PrepareHybrid (and so Prepare and
// EvaluateHybrid) and every searcher call it. It fixes the chunk from a
// geometry base, a rail stage built by Rails on this Evaluator's Tech, and
// a group assignment m built by NewMask for g's capacity and the stage's
// flavor pair (a hybrid m requires a stage built with alternate terms).
// It runs in two steps. The geometry stage computes every term that reads
// no mask; it is memoized on (base geometry, rail values, group count), so
// a prepare on the last prepare's key skips it and the checks the key
// implies. The mask stamp then writes what the mask changes. The result is
// bit-identical to a prepare on a fresh Evaluator. A failure leaves the
// Evaluator unprepared.
func (e *Evaluator) PrepareStaged(g wire.Geometry, rs *RailStage, m *Mask) error {
	e.Flush()
	e.prepared = false
	if e.tech == nil {
		return fmt.Errorf("array: Prepare on zero Evaluator (use NewEvaluator)")
	}
	if rs.tech != e.tech {
		return fmt.Errorf("array: rail stage built for a different technology")
	}
	// The key: every geometry field but the swept fin counts, the group
	// count, and the rails by value, bit for bit, rather than the stage's
	// address: PrepareHybrid's stage lives on its frame, and a callee that
	// kept a pointer to a caller's stage would move it to the heap.
	k := &e.geom
	hit := e.staged && g.NR == k.NR && g.NC == k.NC && g.W == k.W && g.WLSegs == k.WLSegs && g.Mux == k.Mux &&
		m.groups == e.hGroups &&
		math.Float64bits(rs.vddc) == math.Float64bits(e.vddc) &&
		math.Float64bits(rs.vssc) == math.Float64bits(e.vssc) &&
		math.Float64bits(rs.vwl) == math.Float64bits(e.vwl)
	var err error
	if hit {
		// The key implies a valid base geometry and group count.
		err = checkMask(m.groups, m.mask)
	} else {
		err = (Design{Geom: g, Groups: m.groups, GroupMask: m.mask}).validateHybrid()
	}
	if err != nil {
		return err
	}
	if m.groups > 1 && !rs.hasAlt {
		return fmt.Errorf("array: Groups=%d requires a rail stage with alternate flavor terms", m.groups)
	}
	if !hit {
		base := g
		base.Npre, base.Nwr = 1, 1
		if err := base.Validate(); err != nil {
			return err
		}
		e.stageGeometry(base, rs, m.groups)
	}
	return e.stamp(rs, m)
}

// stageGeometry is PrepareStaged's geometry stage: every chunk term that
// reads no group mask, from a validated base geometry g, the rail stage's
// rails and rail-driver currents, and the group count. It records the memo
// key and invalidates the sweep lanes.
func (e *Evaluator) stageGeometry(g wire.Geometry, rs *RailStage, groups int) {
	t := e.tech
	vddc, vssc, vwl := rs.vddc, rs.vssc, rs.vwl
	p := t.Periph
	var b Breakdown

	// --- Table 1 capacitances (the N_pre/N_wr-independent ones) ---
	cCVDD := wire.CVDD(g, t.Caps)
	cCVSS := wire.CVSS(g, t.Caps)
	cWL := wire.WL(g, t.Caps)

	// --- Table 2 components invariant across the inner sweep ---
	b.DCVDD, b.ECVDD = component(cCVDD, t.Vdd, vddc-t.Vdd, coefCVDD*railFins*rs.iCVDD)
	b.DCVSS, b.ECVSS = component(cCVSS, t.Vdd, math.Abs(vssc), coefCVSS*railFins*rs.iCVSS)
	if segs := g.Segments(); segs > 1 {
		// Divided wordline: global wire + per-segment AND + local wordline.
		cGWL := wire.GWL(g, t.Caps)
		cLWL := wire.LWL(g, t.Caps)
		lwlFins := float64(wire.LWLDriverFins())
		dAnd := 2 * p.Tau * (2 + p.PInv) // NAND2 + local driver input stage
		eAnd := lwlFins * (t.Caps.Cgn + t.Caps.Cgp) * t.Vdd * t.Vdd
		dg, eg := component(cGWL, t.Vdd, t.Vdd, coefWLrd*driveFins*e.ionP)
		dl, el := component(cLWL, t.Vdd, t.Vdd, coefWLrd*lwlFins*e.ionP)
		b.DWLGlobal, b.DWLLocal = dg, dl
		b.DWLRead = dg + dAnd + dl
		b.EWLRead = eg + eAnd + el
		dlw, elw := component(cLWL, t.Vdd, vwl, coefWLwr*lwlFins*rs.iWL)
		b.DWLWrite = dg + dAnd + dlw
		b.EWLWrite = eg + eAnd + elw
	} else {
		b.DWLRead, b.EWLRead = component(cWL, t.Vdd, t.Vdd, coefWLrd*driveFins*e.ionP)
		b.DWLWrite, b.EWLWrite = component(cWL, t.Vdd, vwl, coefWLwr*driveFins*rs.iWL)
	}

	// --- Peripheral blocks (the write cell is the stamp's) ---
	rowDec, colDec := e.decoders(g)
	b.DRowDec, b.ERowDec = rowDec.Delay, rowDec.Energy
	b.DRowDrv, b.ERowDrv = e.driveDrv.Delay, e.driveDrv.Energy
	if g.Muxed() {
		b.DColDec, b.EColDec = colDec.Delay, colDec.Energy
		b.DColDrv, b.EColDrv = e.driveDrv.Delay, e.driveDrv.Energy
	}
	b.DSenseAmp, b.ESenseAmp = p.SADelay, p.SAEnergy

	// --- Per-point builders (Table 1 factorization) ---
	e.muxed = g.Muxed()
	e.blFixed = wire.BLFixed(g, t.Caps)
	e.cdp = t.Caps.Cdp
	e.sumCd = t.Caps.Cdn + t.Caps.Cdp
	e.colBase = wire.COLFixed(g, t.Caps)
	e.colW = 2 * float64(g.W)
	e.sumCg = t.Caps.Cgn + t.Caps.Cgp
	e.dvBLRd = vddc - vssc

	// --- Output mux (sense-amp sharing) ---
	m := g.MuxRatio()
	e.muxRatio = m
	e.blMuxCd = 0
	if m > 1 {
		e.blMuxCd = float64(m) * e.sumCd
	}
	cMuxSel := wire.MuxSel(g, t.Caps)
	b.DMuxSel, b.EMuxSel = component(cMuxSel, t.Vdd, t.Vdd, e.iCol)
	e.dMuxExtra, e.eMuxExtra = b.DMuxSel, b.EMuxSel

	// --- Layout area (wire.Area factorization) ---
	e.area0 = wire.AreaBase(g)
	e.areaPre = wire.AreaPreUnit(g)
	e.areaWr = wire.AreaWrUnit(g)

	// --- Hybrid per-group effective bitline capacitances ---
	e.hGroups = 0
	if groups > 1 {
		e.hGroups = groups
		for gi := 0; gi < groups-1; gi++ {
			e.hBLFix[gi] = e.blFixed * (float64(gi+1) / float64(groups))
		}
		e.hBLFix[groups-1] = e.blFixed
	}

	// --- Partial Table-3 sums (prefixes of EvalInto's left-associative
	// chains, so completing them per point reproduces the full sums
	// bit-for-bit) ---
	e.dReadRow = b.DRowDec + b.DRowDrv + b.DWLRead
	e.dColBase = b.DColDec + b.DColDrv
	e.dWriteRow = b.DRowDec + b.DRowDrv + b.DWLWrite

	activeCols := float64(g.NC / g.Segments())
	w := float64(g.W)
	blRdMult, preRdMult, saMult, wrMult := 1.0, 1.0, 1.0, 1.0
	e.allCols = t.Accounting == AllColumns
	if e.allCols {
		blRdMult, preRdMult, saMult, wrMult = activeCols, activeCols, w, w
		if m > 1 {
			// Shared sense amps: only W/m amps fire per access.
			saMult = w / float64(m)
		}
	}
	e.blRdMult, e.preRdMult, e.wrMult = blRdMult, preRdMult, wrMult
	e.wMult = w
	e.acMinusW = activeCols - w
	dcdc := t.DCDCFactor
	e.eReadBase = b.ERowDec + b.ERowDrv + b.EWLRead
	e.saE = saMult * b.ESenseAmp
	e.railE = dcdc * (b.ECVDD + b.ECVSS)
	e.eWriteBase = b.ERowDec + b.ERowDrv + dcdc*b.EWLWrite + b.EColDec + b.EColDrv

	// Rails must settle before WL reaches 50% (§4) — invariant, as neither
	// the rail components nor the WL path depend on N_pre or N_wr.
	wlHalf := b.DRowDec + b.DRowDrv + 0.5*b.DWLRead
	e.settles = math.Max(b.DCVDD, b.DCVSS) <= wlHalf

	e.parts = b
	e.soaN = 0 // the SoA lanes belong to the previous geometry stage
	e.vddc, e.vssc, e.vwl = vddc, vssc, vwl
	e.geom = g
	e.staged = true
}

// stamp is PrepareStaged's mask stamp: on the staged geometry it writes what
// the group assignment m changes — the per-group read currents and the read
// current of the far group, the near groups, the mask, the write-cell terms
// and the leakage weight — rejecting a non-positive read current, and drops
// the bound constants, which read them. It keeps the sweep lanes, which read
// no mask. The stage's cell terms are indexed by the flavor a mask bit
// selects rather than branched on: a search's masks follow no pattern a
// branch predictor learns.
func (e *Evaluator) stamp(rs *RailStage, m *Mask) error {
	e.bk.ok = false
	k := &m.terms
	if groups := e.hGroups; groups == 0 {
		if rs.iRead[0] <= 0 {
			return fmt.Errorf("array: non-positive read current %g at VDDC=%g VSSC=%g", rs.iRead[0], rs.vddc, rs.vssc)
		}
		e.iRead = rs.iRead[0]
	} else {
		for gi := 0; gi < groups; gi++ {
			v := rs.iRead[m.mask>>uint(gi)&1]
			if v <= 0 {
				return fmt.Errorf("array: non-positive read current %g at VDDC=%g VSSC=%g (group %d)", v, rs.vddc, rs.vssc, gi)
			}
			e.hIRead[gi] = v
		}
		// The far group sees the full bitline; its current feeds the shared
		// component call, which the hybrid max in EvalInto then refines.
		e.iRead = e.hIRead[groups-1]
	}
	e.hMask = m.mask
	e.hNear, e.hNearN = [2]int{int(k.near[0]), int(k.near[1])}, int(k.nearN)

	var f int // the flavor whose write sets the cell flip
	switch k.write {
	case writeAlt:
		f = 1
	case writeSlower:
		// Mixed: the slower flavor's write dominates the cell flip.
		if rs.wrDelay[1] > rs.wrDelay[0] {
			f = 1
		}
	}
	b := &e.parts
	b.DWriteCell, b.EWriteCell = rs.wrDelay[f], rs.wrEnergy[f]
	e.wrCellE = e.wrMult * b.EWriteCell
	e.leakCoef = math.Float64frombits(k.leak)
	e.prepared = true
	return nil
}

// writeCell selects the write-cell terms of a hybrid chunk.
type writeCell uint8

const (
	writeBase   writeCell = iota // every group holds the base flavor (and every global-flavor chunk)
	writeAlt                     // every group holds the alternate flavor
	writeSlower                  // mixed: the slower flavor's write dominates the cell flip
)

// MaskKey holds the mask terms of a group assignment: everything the mask
// stamp derives from the mask except the per-group read currents, which
// follow the mask bit by bit and are read only through the far group and
// the near ones — the flavor of the far group, the farthest lower group of
// each flavor present below it (hNear) with its flavor, the write-cell terms
// and the exact bits of the leakage weight. It also identifies a hybrid mask
// up to equivalence (DESIGN.md §13.7): two masks of one capacity and group
// count whose keys are equal, prepared on the same geometry base and rail
// stage, give EvalInto Results that are == apart from Design.GroupMask, and
// == EvalSweep lanes and BoundRect bounds. The stamp and the key read one
// value, so the key cannot drift from the prepare.
type MaskKey struct {
	leak    uint64 // Σ_g (Bits/Groups)·LeakCell_g; a pure mask keeps the global Bits·LeakCell
	near    [2]int8
	nearAlt [2]bool
	nearN   int8
	farAlt  bool
	write   writeCell
}

// Mask is a group assignment as PrepareStaged stamps it: Design's (Groups,
// GroupMask) encoding — groups 0 selects the single global flavor — with
// its mask terms. A searcher that prepares each mask on many units builds
// its Masks once.
type Mask struct {
	terms  MaskKey
	groups int
	mask   uint32
}

// NewMask returns the group assignment (groups, mask) of an array of bits
// cells whose base and alternate flavors leak leakBase (Tech.LeakCell) and
// leakAlt (FlavorTerms.LeakCell) per cell. It checks nothing: PrepareStaged
// validates the assignment, and a Mask must be prepared only on geometries
// of its capacity, from rail stages of its flavor pair.
func NewMask(bits, groups int, mask uint32, leakBase, leakAlt float64) Mask {
	// The single global flavor and a uniform base mask share the global
	// path's single multiply, which is exact. Group counts PrepareStaged
	// rejects stop at these base terms, so none loops past MaxGroups or
	// divides by zero.
	leak := float64(bits) * leakBase
	if groups < 2 || groups > MaxGroups {
		return Mask{terms: MaskKey{leak: math.Float64bits(leak)}, groups: groups, mask: mask}
	}
	var k MaskKey
	k.farAlt = mask>>uint(groups-1)&1 == 1
	if full := uint32(1)<<uint(groups) - 1; mask == full {
		k.write = writeAlt
		leak = float64(bits) * leakAlt
	} else if mask != 0 {
		k.write = writeSlower
		leak = 0
		perGroup := float64(bits / groups)
		for gi := 0; gi < groups; gi++ {
			lk := leakBase
			if mask>>uint(gi)&1 == 1 {
				lk = leakAlt
			}
			leak += perGroup * lk
		}
	}
	k.leak = math.Float64bits(leak)
	// Within one flavor a lower group's delay term never exceeds that of
	// the farthest lower group of the same flavor, so only the farthest
	// lower group of each flavor can set the max (DESIGN.md §13.6).
	var taken [2]bool
	for gi := groups - 2; gi >= 0; gi-- {
		if f := mask >> uint(gi) & 1; !taken[f] {
			taken[f] = true
			k.near[k.nearN], k.nearAlt[k.nearN] = int8(gi), f == 1
			k.nearN++
		}
	}
	return Mask{terms: k, groups: groups, mask: mask}
}

// Key returns the equivalence key of a hybrid mask (groups ≥ 2).
func (m Mask) Key() MaskKey { return m.terms }

// hybridBLDelay returns the read bitline delay of a hybrid chunk: the worst
// group, each seeing the bitline wire and drains up to its own rows plus the
// full per-point (precharger, write-buffer, mux) drain terms. The far group
// uses cBL verbatim, so a uniform mask reproduces the global-flavor
// component delay bit-identically.
//
// Only the far group and the hNear groups are divided: within one flavor the
// term is non-decreasing in the group index (hBLFix is, and correctly
// rounded +, × and ÷ are monotone), so the farthest lower group of each
// flavor dominates the others and the max is exactly the all-groups max.
// The same-flavor representative stays because (cBL − blFixed) + blFixed
// may round above cBL.
func (e *Evaluator) hybridBLDelay(cBL float64) float64 {
	d := cBL * e.deltaVS / e.hIRead[e.hGroups-1]
	for _, gi := range e.hNear[:e.hNearN] {
		ce := (cBL - e.blFixed) + e.hBLFix[gi]
		if dg := ce * e.deltaVS / e.hIRead[gi]; dg > d {
			d = dg
		}
	}
	return d
}

// nwrTerms returns the N_wr-dependent terms of the prepared chunk at one
// N_wr: the N_wr term of C_BL (wire.BL's (2·)N_wr·ΣCd), the column-select
// component (zero without a column mux) and the write-buffer drain current
// coefBLwr·N_wr·I_TG. EvalInto, the sweep lanes and BoundRect's corners all
// read them here.
func (e *Evaluator) nwrTerms(nwr int) (bl, dCOL, eCOL, iBLwr float64) {
	fnwr := float64(nwr)
	if e.muxed {
		bl = 2 * fnwr * e.sumCd
		dCOL, eCOL = component(e.colBase+e.colW*fnwr*e.sumCg, e.vdd, e.vdd, e.iCol)
	} else {
		bl = fnwr * e.sumCd
	}
	return bl, dCOL, eCOL, coefBLwr * fnwr * e.iTG
}

// EvalInto evaluates one (N_pre, N_wr) point of the prepared chunk into res,
// overwriting it completely. Search loops reuse one scratch Result and copy
// it only when a candidate wins, keeping the hot loop allocation-free.
func (e *Evaluator) EvalInto(npre, nwr int, res *Result) error {
	if !e.prepared {
		return fmt.Errorf("array: EvalInto before a successful Prepare")
	}
	if npre < 1 {
		return fmt.Errorf("wire: N_pre = %d must be ≥ 1", npre)
	}
	if nwr < 1 {
		return fmt.Errorf("wire: N_wr = %d must be ≥ 1", nwr)
	}
	mEvals.Inc()
	b := e.parts

	// --- Table 1, per-point: BL (wire.BL op order; the mux drain term is an
	// exact zero add in the degenerate organization) and the N_wr terms ---
	var bl, iBLwr float64
	bl, b.DCOL, b.ECOL, iBLwr = e.nwrTerms(nwr)
	cBL := e.blFixed + float64(npre+1)*e.cdp + bl
	if !e.muxed {
		cBL += e.cdp
	}
	cBL += e.blMuxCd

	// --- Table 2, per-point components ---
	b.DBLRead, b.EBLRead = component(cBL, e.dvBLRd, e.deltaVS, e.iRead)
	if e.hGroups > 1 {
		b.DBLRead = e.hybridBLDelay(cBL)
	}
	b.DBLWrite, b.EBLWrite = component(cBL, e.vdd, e.vdd, iBLwr)
	iPre := coefPRE * float64(npre) * e.ionP
	b.DPreRead, b.EPreRead = component(cBL, e.vdd, e.deltaVS, iPre)
	b.DPreWrite, b.EPreWrite = component(cBL, e.vdd, e.vdd, iPre)

	// --- Table 3 delays ---
	readRow := e.dReadRow + b.DBLRead
	readCol := e.dColBase + b.DCOL
	dRead := max(readRow, readCol) + b.DSenseAmp + b.DPreRead + e.dMuxExtra

	writeCol := e.dColBase + b.DCOL + b.DBLWrite
	dWrite := max(e.dWriteRow, writeCol) + b.DWriteCell + b.DPreWrite

	// --- Table 3 energies ---
	preWrE := b.EPreWrite
	if e.allCols {
		preWrE = e.wMult*b.EPreWrite + e.acMinusW*b.EPreRead
	}
	eRead := e.eReadBase + e.blRdMult*b.EBLRead +
		b.EColDec + b.EColDrv + b.ECOL +
		e.saE + e.preRdMult*b.EPreRead +
		e.railE + e.eMuxExtra
	eWrite := e.eWriteBase + b.ECOL +
		e.wrMult*b.EBLWrite + e.wrCellE + preWrE

	// --- Eqs. (2)-(5), area and the products ---
	dArray := max(dRead, dWrite)
	eSw := e.beta*eRead + e.oneMinusBeta*eWrite
	eLeak := e.leakCoef * dArray
	eArray := e.alpha*eSw + eLeak
	edp := eArray * dArray
	area := (e.area0 + float64(npre)*e.areaPre) + float64(nwr)*e.areaWr

	g := e.geom
	g.Npre, g.Nwr = npre, nwr
	*res = Result{
		Design: Design{Geom: g, VDDC: e.vddc, VSSC: e.vssc, VWL: e.vwl,
			Groups: e.hGroups, GroupMask: e.hMask},
		Activity:          e.act,
		DRead:             dRead,
		DWrite:            dWrite,
		DArray:            dArray,
		ESwRead:           eRead,
		ESwWrite:          eWrite,
		ESw:               eSw,
		ELeak:             eLeak,
		EArray:            eArray,
		EDP:               edp,
		Area:              area,
		PADP:              edp * area,
		RailsSettleInTime: e.settles,
		Parts:             b,
	}
	return nil
}
