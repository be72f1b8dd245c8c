package cell

import (
	"errors"
	"fmt"
	"math"

	"sramco/internal/circuit"
	"sramco/internal/obs"
)

// ErrWriteFail reports that the cell does not flip even with the wordline at
// the full applied bias — the write margin is ≤ 0. It is a legitimate
// characterization outcome (a failing Monte Carlo sample, an infeasible
// assist level), not a solver failure; callers distinguish it from
// infrastructure errors with errors.Is.
var ErrWriteFail = errors.New("write margin ≤ 0")

// WriteTripWL returns the minimum wordline voltage that flips a cell holding
// '1' on Q when BL is driven to b.VBL (writing a '0'), bisected over
// [0, b.VWL] to writeTripTolV. The paper defines the write margin relative
// to this trip point.
//
// Flip detection is transient (dynamic): the DC problem is singular exactly
// at the trip fold, so each probe applies the wordline level to the cell
// with its storage nodes loaded by their physical capacitances and checks
// whether the state flips within a generous settling window. A probe's
// outcome does not depend on b.VWL, which only bounds the search.
func (c *Cell) WriteTripWL(b WriteBias) (float64, error) {
	return c.scratch().writeTrip(c.DVt, b)
}

// WriteMargin returns the write margin under bias b: the applied wordline
// voltage minus the minimum wordline voltage needed to flip the cell
// (paper §3.2; at VWL = Vdd this is exactly the paper's WM definition).
func (c *Cell) WriteMargin(b WriteBias) (float64, error) {
	return c.scratch().WriteMargin(c.DVt, b)
}

// WriteDelay returns the cell-level write delay (s): the time from the
// wordline reaching 50 % of Vdd until Q and QB cross, writing a '0' over a
// stored '1' (paper §3.2 definition; ≈1.5 ps for 6T-HVT with no assist).
// The transient watches both crossings as it runs and stops at the step in
// which Q falls through QB, in place of integrating the rest of the window.
func (c *Cell) WriteDelay(b WriteBias) (float64, error) {
	const (
		tStart = 2e-12  // WL step start
		tRise  = 1e-12  // WL rise time
		tStop  = 60e-12 // simulation window
		dt     = 0.05e-12
	)
	tr := c.writeCell(circuit.Step(0, b.VWL, tStart, tRise), b.Vdd, b.VBL).NewTranRunner()
	wl := tr.Watch("WL", circuit.Ground, 0.5*b.Vdd, circuit.RisingEdge)
	cross := tr.Watch("Q", "QB", 0, circuit.FallingEdge)
	if err := tr.Run(circuit.TranOpts{TStop: tStop, DT: dt}, circuit.Chain(wl, cross)); err != nil {
		return 0, fmt.Errorf("cell: write-delay transient: %w", err)
	}
	if err := wl.Err(); err != nil {
		return 0, fmt.Errorf("cell: WL never reached 50%%: %w", err)
	}
	if !cross.Found {
		return 0, errors.New("cell: Q and QB never crossed (write did not complete)")
	}
	return cross.At - wl.At, nil
}

// MinVDDCForReadSNM returns the smallest VDDC (searched on a 10 mV grid like
// the paper's rail granularity) at which the read SNM meets target, with the
// other read-bias fields taken from b, and the read SNM at that VDDC. Every
// grid level runs on one workspace. The SNM is that of the probe that found
// the returned level passing; only a returned level the search never
// probed (the grid's top level, when it is not bit-identical to vMax) is
// extracted once more. It returns an error if even vMax fails.
func (c *Cell) MinVDDCForReadSNM(b ReadBias, target, vMax float64) (vddc, snm float64, err error) {
	s := c.scratch()
	readSNM := func(vddc float64) (float64, error) {
		bb := b
		bb.VDDC = vddc
		return s.ReadSNM(c.DVt, bb)
	}
	passV, passSNM := math.NaN(), 0.0 // the last passing probe
	meets := func(vddc float64) (bool, error) {
		snm, err := readSNM(vddc)
		if err != nil {
			return false, err
		}
		if snm >= target {
			passV, passSNM = vddc, snm
		}
		return snm >= target, nil
	}
	if vddc, err = minRailSearch(meets, b.Vdd, vMax, "VDDC"); err != nil {
		return 0, 0, err
	}
	if vddc == passV {
		return vddc, passSNM, nil
	}
	snm, err = readSNM(vddc)
	return vddc, snm, err
}

// MinVWLForWriteMargin returns the smallest write-assist VWL (10 mV grid) at
// which the write margin meets target. The trip is computed once, at vMax:
// a level below the trip is a failing grid point, not a failed search.
func (c *Cell) MinVWLForWriteMargin(b WriteBias, target, vMax float64) (float64, error) {
	b.VWL = vMax
	trip, err := c.WriteTripWL(b)
	if err != nil {
		return 0, err
	}
	meets := func(vwl float64) (bool, error) { return vwl-trip >= target, nil }
	return minRailSearch(meets, b.Vdd, vMax, "VWL")
}

// minRailSearch finds the smallest voltage on a 10 mV grid in [vMin, vMax]
// satisfying a monotone predicate.
func minRailSearch(meetsRaw func(float64) (bool, error), vMin, vMax float64, what string) (float64, error) {
	sp := obs.StartSpan("cell.rail_search")
	probes := 0
	meets := func(v float64) (bool, error) {
		probes++
		mRailProbes.Inc()
		return meetsRaw(v)
	}
	const grid = 0.010
	n := int((vMax-vMin)/grid + 0.5)
	lo, hi := 0, n // grid indices; predicate assumed false below lo-1... binary search
	ok, err := meets(vMax)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("cell: %s search: target unmet even at %gV", what, vMax)
	}
	if ok0, err := meets(vMin); err != nil {
		return 0, err
	} else if ok0 {
		sp.Str("rail", what)
		sp.Int("probes", int64(probes))
		sp.Float("v", vMin)
		sp.End()
		return vMin, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		v := vMin + float64(mid)*grid
		ok, err := meets(v)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	v := vMin + float64(hi)*grid
	sp.Str("rail", what)
	sp.Int("probes", int64(probes))
	sp.Float("v", v)
	sp.End()
	return v, nil
}

// ReadCurrentFit fits the paper's analytical read-current law
// I_read = b·(V_DDC − V_SSC − V_t)^a to simulated read currents over a range
// of VSSC values by log-log least squares, given the device threshold vt.
// It returns (a, b).
func (c *Cell) ReadCurrentFit(rb ReadBias, vsscs []float64, vt float64) (a, bCoef float64, err error) {
	var xs, ys []float64
	for _, vssc := range vsscs {
		bb := rb
		bb.VSSC = vssc
		i, err := c.ReadCurrent(bb)
		if err != nil {
			return 0, 0, err
		}
		drive := bb.VDDC - vssc - vt
		if drive <= 0 || i <= 0 {
			continue
		}
		xs = append(xs, drive)
		ys = append(ys, i)
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("cell: read-current fit needs ≥2 usable points, got %d", len(xs))
	}
	// Linear regression of ln(i) on ln(drive).
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for k := range xs {
		lx, ly := math.Log(xs[k]), math.Log(ys[k])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	a = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	lnB := (sy - a*sx) / n
	return a, math.Exp(lnB), nil
}
