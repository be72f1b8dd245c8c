package array

import "fmt"

// Bound is a certified lower bound on the array metrics over a whole
// (N_pre, N_wr) rectangle of the prepared chunk: no point inside the
// rectangle can evaluate to a DArray, EArray or EDP below the corresponding
// field. A branch-and-bound searcher compares a Bound against its incumbent
// and skips the rectangle wholesale when even the bound cannot win.
//
// RailsSettleInTime carries the chunk-invariant §4 rail-settling feasibility
// (it does not depend on the swept fin counts), so a searcher can discard an
// unsettling chunk without evaluating a single point.
type Bound struct {
	DArray float64
	EArray float64
	EDP    float64
	Area   float64
	PADP   float64

	RailsSettleInTime bool
}

// boundSlack is the one-sided margin every bound value is multiplied by. The
// bound kernel reassociates EvalInto's expressions, so its computed values
// are not ordered against the computed points operation by operation; they
// rest on a rounding budget instead (DESIGN.md §11). Every kernel term is a
// positive sum, product or quotient, with no cancellation, so the computed
// bound lies within ~k·u of the exact bound and each computed point within
// ~k′·u of its exact value (u = 2⁻⁵³, k and k′ a few dozen). The exact bound
// is at most the exact value of every point of its rectangle, and
// (k + k′)·u ≪ 1 − boundSlack, so bound·boundSlack stays strictly below every
// computed point. Searchers must prune only on bound > incumbent (strict), so
// exact objective ties are always evaluated and canonical tie-breaking stays
// bit-identical.
const boundSlack = 1 - 1e-12

// boundConsts are the bound kernel's per-unit constants, folded from the
// prepared chunk on first use after each Prepare. With them and the sweep
// lanes, a bound over one sub-rectangle costs a handful of multiplies and
// two divisions (rowTerms).
type boundConsts struct {
	ok bool

	rdK     float64    // ΔV_S/I_read: the far group's (every group's, single flavor) bitline delay per farad
	nearK   [2]float64 // ΔV_S/I_read,g of the hNear groups
	nearFix [2]float64 // hBLFix[g] of the hNear groups
	nearN   int
	rdTail  float64 // D_SA + D_MuxSel, the read delay's constant tail

	// E ≥ e0 + eBL·C_BL + eCol·E_COL + leakCoef·D: Eq. (3)-(5) with α, β and
	// the accounting multipliers folded into one constant and two slopes.
	e0, eBL, eCol float64
}

// foldBound folds the prepared chunk's bound constants.
func (e *Evaluator) foldBound() {
	k := &e.bk
	k.rdK = e.deltaVS / e.iRead
	k.nearN = 0
	if e.hGroups > 1 {
		for j, gi := range e.hNear[:e.hNearN] {
			k.nearK[j] = e.deltaVS / e.hIRead[gi]
			k.nearFix[j] = e.hBLFix[gi]
		}
		k.nearN = e.hNearN
	}
	b := &e.parts
	k.rdTail = b.DSenseAmp + e.dMuxExtra

	// eRead = cR + sR·C_BL + E_COL and eWrite = cW + sW·C_BL + E_COL, term for
	// term from EvalInto's sums.
	vv, vs := e.vdd*e.vdd, e.vdd*e.deltaVS
	cR := e.eReadBase + b.EColDec + b.EColDrv + e.saE + e.railE + e.eMuxExtra
	sR := e.blRdMult*(e.dvBLRd*e.deltaVS) + e.preRdMult*vs
	cW := e.eWriteBase + e.wrCellE
	preW := vv
	if e.allCols {
		preW = e.wMult*vv + e.acMinusW*vs
	}
	sW := e.wrMult*vv + preW
	k.e0 = e.alpha * (e.beta*cR + e.oneMinusBeta*cW)
	k.eBL = e.alpha * (e.beta*sR + e.oneMinusBeta*sW)
	k.eCol = e.alpha * (e.beta + e.oneMinusBeta)
	k.ok = true
}

// rowTerms returns the N_pre terms of the rectangles over N_pre ∈ [lo, hi],
// folding the unit's constants first if this is the unit's first bound: the
// bitline increment above blFixed without the N_wr term at lo, and the
// precharge delays per farad, ΔV_S/I_pre and V_dd/I_pre, at hi.
func (e *Evaluator) rowTerms(lo, hi int) (inc, preRK, preWK float64) {
	if !e.bk.ok {
		e.foldBound()
	}
	extra := e.cdp
	if e.muxed {
		extra = 0
	}
	iPre := coefPRE * float64(hi) * e.ionP
	return float64(lo+1)*e.cdp + extra + e.blMuxCd, e.deltaVS / iPre, e.vdd / iPre
}

// FillLanes fills the prepared unit's sweep lanes for N_wr ≤ n, which
// EvalSweep and SweepBound read and fill on demand. A searcher that bounds
// sub-rectangles of a unit fills them to the unit's largest N_wr first, so
// a narrower first bound does not size them short and make the next wider
// one allocate them again.
func (e *Evaluator) FillLanes(n int) {
	e.ensureSoA(n)
}

// SweepBound writes BoundRect of the rectangle N_pre ∈ [npreLo, npreHi],
// N_wr ∈ [nwrLo, nwrHi] into out, bit for bit, with the N_wr corner terms
// read from the unit's sweep lanes: the bound of the searcher's bisection
// inside a unit it sweeps. Like EvalSweep it writes into the caller's
// storage, which the caller then reads field by field (see bound). Neither
// the Evaluator's state nor the rectangle is checked: the Evaluator must be
// prepared, 1 ≤ npreLo ≤ npreHi and 1 ≤ nwrLo ≤ nwrHi.
func (e *Evaluator) SweepBound(npreLo, npreHi, nwrLo, nwrHi int, out *Bound) {
	if nwrHi > e.soaN {
		e.ensureSoA(nwrHi)
	}
	inc, preRK, preWK := e.rowTerms(npreLo, npreHi)
	d, en := e.kernel(inc+e.soaBL[nwrLo-1], preRK, preWK, e.soaDCOL[nwrLo-1], e.soaECOL[nwrLo-1], e.soaBwK[nwrHi-1])
	e.bound(out, npreLo, nwrLo, d, en)
}

// kernel is the arithmetic core of every bound: the Table-2/3 delay and
// energy lower bounds (before the slack) over a rectangle, from its minimal
// bitline capacitance above blFixed (inc), the precharge delays per farad
// at its high N_pre end, the column component at its low N_wr end and
// V_dd/I_BLwr at its high N_wr end. The far group sees C_BL; a near group g
// sees inc + hBLFix[g], which is C_BL − blFixed + hBLFix[g] without the
// cancellation. Every value is finite and positive, so plain comparisons
// take the maxima: the builtin max's NaN- and sign-preserving sequence put
// six dependent instructions per max on the prune decision's critical path
// (BenchmarkHybridSearch4KB: 48–56 ms/op with comparisons, 53–68 with max,
// over four alternating rounds on a 2-vCPU x86-64 VM).
func (e *Evaluator) kernel(inc, preRK, preWK, dCOL, eCOL, bwK float64) (d, en float64) {
	k := &e.bk
	cBL := e.blFixed + inc
	dBLr := cBL * k.rdK
	for j := 0; j < k.nearN; j++ {
		if v := (inc + k.nearFix[j]) * k.nearK[j]; v > dBLr {
			dBLr = v
		}
	}
	readCol := e.dColBase + dCOL
	rd := e.dReadRow + dBLr
	if readCol > rd {
		rd = readCol
	}
	wr := readCol + cBL*bwK
	if e.dWriteRow > wr {
		wr = e.dWriteRow
	}
	d = rd + cBL*preRK + k.rdTail
	if dWrite := wr + cBL*preWK + e.parts.DWriteCell; dWrite > d {
		d = dWrite
	}
	en = k.e0 + k.eBL*cBL + k.eCol*eCOL + e.leakCoef*d
	return d, en
}

// BoundRect returns a lower bound on the metrics of every point (npre, nwr)
// with npreLo ≤ npre ≤ npreHi and nwrLo ≤ nwr ≤ nwrHi in the prepared chunk.
//
// The bound evaluates the Table-2/3 model once with each per-point term at
// its minimum over the rectangle (DESIGN.md §11 derives the monotonicity
// ranges):
//
//   - C_BL and C_COL increase in both N_pre and N_wr, so every capacitance —
//     and with it every per-point energy C·V·ΔV and the read/column delays —
//     is minimized at the (npreLo, nwrLo) corner.
//   - The write-buffer drain delay C_BL·Vdd/(coef·N_wr·I_TG) decreases in
//     N_wr: the bound takes the minimal numerator (at nwrLo) over the maximal
//     denominator (at nwrHi), a lower bound on the true mixed-corner minimum.
//   - The precharge delays C_BL·ΔV/(coef·N_pre·I_ON,p) decrease in N_pre:
//     again minimal numerator (npreLo) over maximal denominator (npreHi).
//
// Summing per-term minima under the monotone totals of Eq. (2)-(5) yields a
// valid — if not always tight — bound for the whole rectangle. BoundRect
// shares SweepBound's kernel but computes its two N_wr corners directly
// instead of filling the sweep lanes: most units the bound pass bounds are
// pruned and never swept.
func (e *Evaluator) BoundRect(npreLo, npreHi, nwrLo, nwrHi int) (Bound, error) {
	if !e.prepared {
		return Bound{}, fmt.Errorf("array: BoundRect before a successful Prepare")
	}
	if npreLo < 1 || npreHi < npreLo || nwrLo < 1 || nwrHi < nwrLo {
		return Bound{}, fmt.Errorf("array: BoundRect: invalid rectangle N_pre ∈ [%d,%d], N_wr ∈ [%d,%d]",
			npreLo, npreHi, nwrLo, nwrHi)
	}
	// The N_wr corner terms: C_BL and the column component at the low
	// corner, the write-buffer current at the high one.
	blN, dCOL, eCOL, _ := e.nwrTerms(nwrLo)
	_, _, _, iBLwr := e.nwrTerms(nwrHi)
	inc, preRK, preWK := e.rowTerms(npreLo, npreHi)
	d, en := e.kernel(inc+blN, preRK, preWK, dCOL, eCOL, e.vdd/iBLwr)
	var b Bound
	e.bound(&b, npreLo, nwrLo, d, en)
	return b, nil
}

// bound writes the kernel's delay and energy bounds d and en of a rectangle
// with low corner (npreLo, nwrLo) into b, slacked. It inlines, and it
// stores field by field: a Bound has too many fields to live in registers,
// and a literal returned through a second call is copied through the stack
// in 16-byte moves of 8-byte stores, which stall on store forwarding
// (BenchmarkRectBound: ~33 against ~20 ns per bound).
func (e *Evaluator) bound(b *Bound, npreLo, nwrLo int, d, en float64) {
	// Area is exactly monotone increasing in both fin counts, so the low
	// corner is its minimum.
	areaMin := (e.area0 + float64(npreLo)*e.areaPre) + float64(nwrLo)*e.areaWr
	b.DArray = d * boundSlack
	b.EArray = en * boundSlack
	b.EDP = (en * d) * boundSlack
	b.Area = areaMin * boundSlack
	b.PADP = ((en * d) * areaMin) * boundSlack
	b.RailsSettleInTime = e.settles
}
