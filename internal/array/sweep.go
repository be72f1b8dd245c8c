package array

import "fmt"

// SweepBlock is the struct-of-arrays output of EvalSweep: entry i holds the
// Eq. (2)-(5) totals of the point (npre, nwrLo+i). Keeping the three metric
// lanes in separate dense slices lets the searcher scan a whole N_wr row
// with no per-point Result traffic; slices are grown in place and reused
// across calls.
type SweepBlock struct {
	DArray []float64
	EArray []float64
	EDP    []float64
	Area   []float64
	PADP   []float64
}

// grow resizes the block to n entries, reusing capacity.
func (s *SweepBlock) grow(n int) {
	if cap(s.DArray) < n {
		s.DArray = make([]float64, n)
		s.EArray = make([]float64, n)
		s.EDP = make([]float64, n)
		s.Area = make([]float64, n)
		s.PADP = make([]float64, n)
		return
	}
	s.DArray = s.DArray[:n]
	s.EArray = s.EArray[:n]
	s.EDP = s.EDP[:n]
	s.Area = s.Area[:n]
	s.PADP = s.PADP[:n]
}

// ensureSoA fills the chunk-invariant per-N_wr arrays up to n entries
// (index i ↔ N_wr = i+1): the N_wr term of C_BL, the column-select
// component, the write-buffer drain current and the bound kernel's V_dd
// over it. They depend only on the prepared chunk, so Prepare invalidates
// them and every row of the sweep reuses them.
func (e *Evaluator) ensureSoA(n int) {
	if e.soaN >= n {
		return
	}
	if cap(e.soaBL) < n {
		e.soaBL = make([]float64, n)
		e.soaDCOL = make([]float64, n)
		e.soaECOL = make([]float64, n)
		e.soaIBLwr = make([]float64, n)
		e.soaBwK = make([]float64, n)
		e.soaN = 0
	} else {
		e.soaBL = e.soaBL[:n]
		e.soaDCOL = e.soaDCOL[:n]
		e.soaECOL = e.soaECOL[:n]
		e.soaIBLwr = e.soaIBLwr[:n]
		e.soaBwK = e.soaBwK[:n]
	}
	for i := e.soaN; i < n; i++ {
		e.soaBL[i], e.soaDCOL[i], e.soaECOL[i], e.soaIBLwr[i] = e.nwrTerms(i + 1)
		e.soaBwK[i] = e.vdd / e.soaIBLwr[i]
	}
	e.soaN = n
}

// EvalSweep evaluates the full N_wr row nwrLo..nwrHi at a fixed npre into
// out, bit-identical (==) to EvalInto's DArray/EArray/EDP at every point.
// This is the branch-and-bound searcher's hot loop: the N_pre-independent
// terms come from the cached struct-of-arrays lanes, the row-invariant
// precharge terms are hoisted, and the inner loop indexes equal-length
// slices so the compiler drops the bounds checks. Its points count toward
// array.evaluations when the Evaluator flushes (Flush, or the next
// Prepare), not per call.
func (e *Evaluator) EvalSweep(npre, nwrLo, nwrHi int, out *SweepBlock) error {
	if !e.prepared {
		return fmt.Errorf("array: Eval before a successful Prepare")
	}
	if npre < 1 {
		return fmt.Errorf("wire: N_pre = %d must be ≥ 1", npre)
	}
	if nwrLo < 1 || nwrHi < nwrLo {
		return fmt.Errorf("array: EvalSweep: invalid N_wr range [%d,%d]", nwrLo, nwrHi)
	}
	n := nwrHi - nwrLo + 1
	e.ensureSoA(nwrHi)
	out.grow(n)
	e.evals += n

	// Row-invariant per-point terms (exact EvalInto expressions).
	blBase := e.blFixed + float64(npre+1)*e.cdp
	iPre := coefPRE * float64(npre) * e.ionP
	areaRow := e.area0 + float64(npre)*e.areaPre
	// The non-muxed bitline adds one shared-precharger drain on top of the
	// N_wr term; adding a literal zero in the muxed case keeps the loop
	// branch-free without perturbing the value (cBL > 0).
	extra := e.cdp
	if e.muxed {
		extra = 0
	}
	dvBLRd, deltaVS, vdd := e.dvBLRd, e.deltaVS, e.vdd
	iRead := e.iRead
	saD, wcD := e.parts.DSenseAmp, e.parts.DWriteCell
	colDecE, colDrvE := e.parts.EColDec, e.parts.EColDrv
	allCols := e.allCols
	hybrid := e.hGroups > 1

	bl := e.soaBL[nwrLo-1 : nwrHi]
	dcol := e.soaDCOL[nwrLo-1 : nwrHi]
	ecol := e.soaECOL[nwrLo-1 : nwrHi]
	iblw := e.soaIBLwr[nwrLo-1 : nwrHi]
	od := out.DArray[:n]
	oe := out.EArray[:n]
	op := out.EDP[:n]
	oa := out.Area[:n]
	oq := out.PADP[:n]
	if len(bl) != n || len(dcol) != n || len(ecol) != n || len(iblw) != n {
		return fmt.Errorf("array: EvalSweep: internal lane length mismatch")
	}

	for i := range od {
		cBL := blBase + bl[i] + extra + e.blMuxCd
		dblr, eblr := component(cBL, dvBLRd, deltaVS, iRead)
		if hybrid {
			dblr = e.hybridBLDelay(cBL)
		}
		dblw, eblw := component(cBL, vdd, vdd, iblw[i])
		dpr, epr := component(cBL, vdd, deltaVS, iPre)
		dpw, epw := component(cBL, vdd, vdd, iPre)

		readRow := e.dReadRow + dblr
		readCol := e.dColBase + dcol[i]
		dRead := max(readRow, readCol) + saD + dpr + e.dMuxExtra
		writeCol := e.dColBase + dcol[i] + dblw
		dWrite := max(e.dWriteRow, writeCol) + wcD + dpw

		preWrE := epw
		if allCols {
			preWrE = e.wMult*epw + e.acMinusW*epr
		}
		eRead := e.eReadBase + e.blRdMult*eblr +
			colDecE + colDrvE + ecol[i] +
			e.saE + e.preRdMult*epr +
			e.railE + e.eMuxExtra
		eWrite := e.eWriteBase + ecol[i] +
			e.wrMult*eblw + e.wrCellE + preWrE

		dArray := max(dRead, dWrite)
		eSw := e.beta*eRead + e.oneMinusBeta*eWrite
		eLeak := e.leakCoef * dArray
		eArray := e.alpha*eSw + eLeak
		edp := eArray * dArray
		area := areaRow + float64(nwrLo+i)*e.areaWr
		od[i] = dArray
		oe[i] = eArray
		op[i] = edp
		oa[i] = area
		oq[i] = edp * area
	}
	return nil
}
