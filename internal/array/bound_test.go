package array

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sramco/internal/wire"
)

// oracleBoundRect is the reference form of BoundRect: the Table-2/3 model
// evaluated once in EvalInto's expression shapes, with each per-point term
// at its extreme over the rectangle — every capacitance at the
// (npreLo, nwrLo) corner, the write-buffer current at nwrHi and the
// precharge current at npreHi. Each rounded operation is monotone, so it is
// a lower bound operation by operation; the kernel reassociates the same
// sums and must stay within 1e-13 relative of it.
func oracleBoundRect(e *Evaluator, npreLo, npreHi, nwrLo, nwrHi int) Bound {
	fLo := float64(nwrLo)
	blBaseLo := e.blFixed + float64(npreLo+1)*e.cdp
	var cBLmin, cCOLmin float64
	if e.muxed {
		cBLmin = blBaseLo + 2*fLo*e.sumCd + e.blMuxCd
		cCOLmin = e.colBase + e.colW*fLo*e.sumCg
	} else {
		cBLmin = blBaseLo + fLo*e.sumCd + e.cdp + e.blMuxCd
	}

	dCOL, eCOL := component(cCOLmin, e.vdd, e.vdd, e.iCol)
	dBLr, eBLr := component(cBLmin, e.dvBLRd, e.deltaVS, e.iRead)
	if e.hGroups > 1 {
		dBLr = e.hybridBLDelay(cBLmin)
	}
	dBLw, eBLw := component(cBLmin, e.vdd, e.vdd, coefBLwr*float64(nwrHi)*e.iTG)
	iPreMax := coefPRE * float64(npreHi) * e.ionP
	dPreR, ePreR := component(cBLmin, e.vdd, e.deltaVS, iPreMax)
	dPreW, ePreW := component(cBLmin, e.vdd, e.vdd, iPreMax)

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

	areaMin := (e.area0 + float64(npreLo)*e.areaPre) + float64(nwrLo)*e.areaWr
	return Bound{
		DArray:            dArray * boundSlack,
		EArray:            eArray * boundSlack,
		EDP:               (eArray * dArray) * boundSlack,
		Area:              areaMin * boundSlack,
		PADP:              ((eArray * dArray) * areaMin) * boundSlack,
		RailsSettleInTime: e.settles,
	}
}

// boundCase is one drawn chunk and rectangle of the bound kernel tests.
type boundCase struct {
	tech            int // index into evaluatorTechs
	act             Activity
	g               wire.Geometry
	vddc, vssc, vwl float64
	groups          int
	mask            uint32
	npreLo, npreHi  int
	nwrLo, nwrHi    int
}

func (c boundCase) String() string {
	return fmt.Sprintf("tech %d act %+v geom %+v rails (%g,%g,%g) groups %d mask %#x rect [%d,%d]×[%d,%d]",
		c.tech, c.act, c.g, c.vddc, c.vssc, c.vwl, c.groups, c.mask, c.npreLo, c.npreHi, c.nwrLo, c.nwrHi)
}

// drawBoundCase draws a case over both flavors and both accountings,
// several activities, flat and divided wordlines, mux ratios 0/2/4, rails,
// hybrid groups 2/4/8 with random masks, and rectangles that include single
// rows and single points.
func drawBoundCase(rng *rand.Rand) boundCase {
	acts := []Activity{{Alpha: 0.5, Beta: 0.5}, {Alpha: 0.31, Beta: 0.82}, {Alpha: 1, Beta: 0}, {Alpha: 0.07, Beta: 1}}
	c := boundCase{tech: rng.Intn(4), act: acts[rng.Intn(len(acts))]}
	for {
		nc := 1 << rng.Intn(11)
		c.g = wire.Geometry{NR: 16 << rng.Intn(7), NC: nc, W: min(nc, []int{8, 16, 64}[rng.Intn(3)]), Npre: 1, Nwr: 1,
			WLSegs: []int{0, 2, 4, 8}[rng.Intn(4)], Mux: []int{0, 2, 4}[rng.Intn(3)]}
		if c.g.Validate() == nil {
			break
		}
	}
	c.vddc = 0.45 + 0.01*float64(rng.Intn(31))
	c.vssc = -0.01 * float64(rng.Intn(25))
	c.vwl = 0.45 + 0.01*float64(rng.Intn(21))
	if k := rng.Intn(4); k > 0 {
		c.groups = 1 << k
		c.mask = uint32(rng.Intn(1 << c.groups))
	}
	c.npreLo = 1 + rng.Intn(50)
	c.npreHi = c.npreLo
	if rng.Intn(3) > 0 {
		c.npreHi += rng.Intn(12)
	}
	c.nwrLo = 1 + rng.Intn(20)
	c.nwrHi = c.nwrLo
	if rng.Intn(4) > 0 {
		c.nwrHi += rng.Intn(21 - c.nwrLo)
	}
	return c
}

// checkBoundCase prepares the case's chunk and checks BoundRect over its
// rectangle and the sweep's form, SweepBound, over three kinds of rectangle:
// the drawn one, each of its single rows and each of its single N_wr
// columns. Every bound must lie within 1e-13 relative of oracleBoundRect in
// every field and strictly below the DArray, EArray, EDP, Area and PADP of
// every point of its rectangle, and SweepBound must equal BoundRect of the
// same rectangle bit for bit. It returns the largest relative deviation from
// the oracle.
func checkBoundCase(t *testing.T, techs []*Tech, c boundCase) (dev float64) {
	t.Helper()
	ev, err := NewEvaluator(techs[c.tech], c.act)
	if err != nil {
		t.Fatal(err)
	}
	if c.groups > 0 {
		err = ev.PrepareHybrid(c.g, c.vddc, c.vssc, c.vwl, Hybrid{Groups: c.groups, Mask: c.mask, Alt: altTerms()})
	} else {
		err = ev.Prepare(c.g, c.vddc, c.vssc, c.vwl)
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	// pts[i][j] is the point (npreLo+i, nwrLo+j).
	pts := make([][]Result, c.npreHi-c.npreLo+1)
	for i := range pts {
		pts[i] = make([]Result, c.nwrHi-c.nwrLo+1)
		for j := range pts[i] {
			if err := ev.EvalInto(c.npreLo+i, c.nwrLo+j, &pts[i][j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// below checks a bound of form over the rectangle q against the oracle
	// and every point of q.
	below := func(form string, q [4]int, b Bound) {
		dev = max(dev, checkNear(t, c, fmt.Sprintf("%s %v", form, q), b, oracleBoundRect(ev, q[0], q[1], q[2], q[3])))
		for npre := q[0]; npre <= q[1]; npre++ {
			for nwr := q[2]; nwr <= q[3]; nwr++ {
				r := &pts[npre-c.npreLo][nwr-c.nwrLo]
				if b.RailsSettleInTime != r.RailsSettleInTime {
					t.Fatalf("%v: %s %v feasibility %v disagrees with point (%d,%d)", c, form, q, b.RailsSettleInTime, npre, nwr)
				}
				if !(b.DArray < r.DArray && b.EArray < r.EArray && b.EDP < r.EDP && b.Area < r.Area && b.PADP < r.PADP) {
					t.Fatalf("%v: %s %v bound not strictly below point (%d,%d):\n  bound D=%g E=%g EDP=%g Area=%g PADP=%g\n  point D=%g E=%g EDP=%g Area=%g PADP=%g",
						c, form, q, npre, nwr, b.DArray, b.EArray, b.EDP, b.Area, b.PADP, r.DArray, r.EArray, r.EDP, r.Area, r.PADP)
				}
			}
		}
	}
	rects := [][4]int{{c.npreLo, c.npreHi, c.nwrLo, c.nwrHi}}
	for npre := c.npreLo; npre <= c.npreHi; npre++ {
		rects = append(rects, [4]int{npre, npre, c.nwrLo, c.nwrHi})
	}
	for nwr := c.nwrLo; nwr <= c.nwrHi; nwr++ {
		rects = append(rects, [4]int{c.npreLo, c.npreHi, nwr, nwr})
	}
	for k, q := range rects {
		b, err := ev.BoundRect(q[0], q[1], q[2], q[3])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if k == 0 {
			below("BoundRect", q, b)
		}
		var sb Bound
		ev.SweepBound(q[0], q[1], q[2], q[3], &sb)
		if sb != b {
			t.Fatalf("%v: SweepBound %v = %+v differs from BoundRect %+v", c, q, sb, b)
		}
		below("SweepBound", q, sb)
	}
	return dev
}

// checkNear fails unless every bound field of got is within 1e-13 relative
// of the oracle's and the feasibility flags agree; it returns the largest
// relative deviation.
func checkNear(t *testing.T, c boundCase, form string, got, want Bound) (dev float64) {
	t.Helper()
	g := [5]float64{got.DArray, got.EArray, got.EDP, got.Area, got.PADP}
	w := [5]float64{want.DArray, want.EArray, want.EDP, want.Area, want.PADP}
	for i, name := range []string{"DArray", "EArray", "EDP", "Area", "PADP"} {
		rel := math.Abs(g[i]-w[i]) / w[i]
		if !(rel <= 1e-13) {
			t.Fatalf("%v: %s %s = %g, oracle %g (relative %.3g)", c, form, name, g[i], w[i], rel)
		}
		dev = max(dev, rel)
	}
	if got.RailsSettleInTime != want.RailsSettleInTime {
		t.Fatalf("%v: %s feasibility %v, oracle %v", c, form, got.RailsSettleInTime, want.RailsSettleInTime)
	}
	return dev
}

// TestBoundKernelMatchesOracle checks the bound kernel behind BoundRect and
// the sweep's rectangle bisection (SweepBound) on 10 000 random cases
// (drawBoundCase): against the expression-shaped oracle, and against every
// point of each rectangle. It logs the largest relative deviation from the
// oracle.
func TestBoundKernelMatchesOracle(t *testing.T) {
	techs := evaluatorTechs(t)
	rng := rand.New(rand.NewSource(20261018))
	dev := 0.0
	for i := 0; i < 10000; i++ {
		dev = max(dev, checkBoundCase(t, techs, drawBoundCase(rng)))
	}
	t.Logf("largest relative deviation from the oracle: %.3g", dev)
}

// FuzzBoundBelowPoints fuzzes the seed of drawBoundCase: the kernel must
// match the oracle and stay strictly below every point of the drawn
// rectangle. The committed corpus is under testdata/fuzz.
func FuzzBoundBelowPoints(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		checkBoundCase(t, evaluatorTechs(t), drawBoundCase(rand.New(rand.NewSource(seed))))
	})
}
