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

// boundSlack is a one-sided safety margin applied to the final bound values.
// The corner evaluation below is already a rigorous floating-point lower
// bound — every operation mirrors EvalInto's expression shape with each
// argument replaced by its extreme over the rectangle, and IEEE-754
// correctly-rounded +, ×, /, max are monotone — but the margin (half an ulp
// of slack per final value) keeps the bound strictly conservative even
// against a future refactoring that perturbs an operation order. Searchers
// must prune only on bound > incumbent (strict), so exact objective ties are
// always evaluated and canonical tie-breaking stays bit-identical.
const boundSlack = 1 - 1e-12

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
//     N_wr: the bound divides the minimal numerator (at nwrLo) by the maximal
//     denominator (at nwrHi), a lower bound on the true mixed-corner minimum.
//   - The precharge delays C_BL·ΔV/(coef·N_pre·I_ON,p) decrease in N_pre:
//     again minimal numerator (npreLo) over maximal denominator (npreHi).
//
// Summing per-term minima under the monotone totals of Eq. (2)-(5) yields a
// valid — if not always tight — bound for the whole rectangle.
func (e *Evaluator) BoundRect(npreLo, npreHi, nwrLo, nwrHi int) (Bound, error) {
	if !e.prepared {
		return Bound{}, fmt.Errorf("array: BoundRect before a successful Prepare")
	}
	if npreLo < 1 || npreHi < npreLo || nwrLo < 1 || nwrHi < nwrLo {
		return Bound{}, fmt.Errorf("array: BoundRect: invalid rectangle N_pre ∈ [%d,%d], N_wr ∈ [%d,%d]",
			npreLo, npreHi, nwrLo, nwrHi)
	}

	// Minimal capacitances: the (npreLo, nwrLo) corner, with wire.BL's exact
	// expression shape so floating-point monotonicity carries over.
	fLo := float64(nwrLo)
	blBaseLo := e.blFixed + float64(npreLo+1)*e.cdp
	var cBLmin, cCOLmin float64
	if e.muxed {
		cBLmin = blBaseLo + 2*fLo*e.sumCd + e.blMuxCd
		cCOLmin = e.colBase + e.colW*fLo*e.sumCg
	} else {
		cBLmin = blBaseLo + fLo*e.sumCd + e.cdp + e.blMuxCd
	}

	// Per-point component minima (energies depend only on the capacitance;
	// the anti-monotone delays take the maximal current denominator).
	dCOL, eCOL := component(cCOLmin, e.vdd, e.vdd, e.iCol)
	dBLr, eBLr := component(cBLmin, e.dvBLRd, e.deltaVS, e.iRead)
	if e.hGroups > 1 {
		// The hybrid read bitline delay is a max of terms each monotone
		// increasing in C_BL, so evaluating it at cBLmin bounds the rectangle.
		dBLr = e.hybridBLDelay(cBLmin)
	}
	dBLw, eBLw := component(cBLmin, e.vdd, e.vdd, coefBLwr*float64(nwrHi)*e.iTG)
	iPreMax := coefPRE * float64(npreHi) * e.ionP
	dPreR, ePreR := component(cBLmin, e.vdd, e.deltaVS, iPreMax)
	dPreW, ePreW := component(cBLmin, e.vdd, e.vdd, iPreMax)

	// Eq. (2)-(5) totals over the minima, in EvalInto's operation order.
	b := &e.parts
	readRow := e.dReadRow + dBLr
	readCol := e.dColBase + dCOL
	dRead := max(readRow, readCol) + b.DSenseAmp + dPreR + e.dMuxExtra
	writeCol := e.dColBase + dCOL + dBLw
	dWrite := max(e.dWriteRow, writeCol) + b.DWriteCell + dPreW
	dArray := max(dRead, dWrite)

	preWrE := ePreW
	if e.allCols {
		preWrE = e.wMult*ePreW + e.acMinusW*ePreR
	}
	eRead := e.eReadBase + e.blRdMult*eBLr +
		b.EColDec + b.EColDrv + eCOL +
		e.saE + e.preRdMult*ePreR +
		e.railE + e.eMuxExtra
	eWrite := e.eWriteBase + eCOL +
		e.wrMult*eBLw + e.wrCellE + preWrE
	eSw := e.beta*eRead + e.oneMinusBeta*eWrite
	eArray := e.alpha*eSw + e.leakCoef*dArray

	// Area is exactly monotone increasing in both fin counts, so the low
	// corner is its minimum; the PADP bound multiplies the three lower
	// bounds (correctly-rounded × is monotone).
	areaMin := (e.area0 + float64(npreLo)*e.areaPre) + float64(nwrLo)*e.areaWr

	return Bound{
		DArray:            dArray * boundSlack,
		EArray:            eArray * boundSlack,
		EDP:               (eArray * dArray) * boundSlack,
		Area:              areaMin * boundSlack,
		PADP:              ((eArray * dArray) * areaMin) * boundSlack,
		RailsSettleInTime: e.settles,
	}, nil
}
