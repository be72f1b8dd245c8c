package cell

import (
	"fmt"
	"math"

	"sramco/internal/circuit"
	"sramco/internal/device"
	"sramco/internal/num"
	"sramco/internal/obs"
)

// vtcPoints is the sweep resolution used for butterfly curves.
const vtcPoints = 181

// VTC is a sampled voltage transfer curve y(x), monotone nonincreasing.
type VTC struct {
	X, Y []float64
}

// interp returns a linear interpolant over the curve (clamping at the ends
// via flat extension, achieved by evaluating within the hull only).
func (v *VTC) interp() (num.Interp1D, error) { return num.NewLinear1D(v.X, v.Y) }

// flip mirrors a VTC across the diagonal: the curve x = f(y) becomes
// y = f⁻¹(x), resampled with strictly increasing x.
func (v *VTC) flip() *VTC {
	n := len(v.X)
	fx := make([]float64, 0, n)
	fy := make([]float64, 0, n)
	// Walking the original curve from last to first sample yields ascending
	// x (= original y) because the VTC is nonincreasing.
	for i := n - 1; i >= 0; i-- {
		x, y := v.Y[i], v.X[i]
		if len(fx) > 0 && x <= fx[len(fx)-1]+1e-9 {
			continue // drop duplicates from rail-flat segments
		}
		fx = append(fx, x)
		fy = append(fy, y)
	}
	return &VTC{X: fx, Y: fy}
}

// Butterfly holds the two butterfly branches in a common (x, y) plane:
// A is the left half-cell VTC y = f(x); B is the mirrored right half-cell
// VTC y = g⁻¹(x).
type Butterfly struct {
	A, B *VTC
}

// SNM returns the static noise margin: the side of the largest square that
// fits inside each butterfly lobe, minimized over the two lobes (Seevinck).
// A non-bistable butterfly (fewer than two lobes) yields 0.
func (b *Butterfly) SNM() (float64, error) {
	fa, err := b.A.interp()
	if err != nil {
		return 0, fmt.Errorf("cell: butterfly branch A: %w", err)
	}
	fb, err := b.B.interp()
	if err != nil {
		return 0, fmt.Errorf("cell: butterfly branch B: %w", err)
	}
	lobe1 := maxSquare(fa, fb, b.A.X[0], b.A.X[len(b.A.X)-1])
	lobe2 := maxSquare(fb, fa, b.B.X[0], b.B.X[len(b.B.X)-1])
	return math.Min(lobe1, lobe2), nil
}

// maxSquare returns the side of the largest square with its upper-left
// corner on curve up and lower-right corner on curve low, i.e. the largest s
// such that up(x) − s = low(x + s) for some x — the embedded square of one
// butterfly lobe. Returns 0 when the lobe is absent.
func maxSquare(up, low num.Interp1D, lo, hi float64) float64 {
	span := hi - lo
	best := 0.0
	const xSteps = 160
	for i := 0; i <= xSteps; i++ {
		x := lo + span*float64(i)/xSteps
		gap := func(s float64) float64 { return up.Eval(x) - s - low.Eval(x+s) }
		if gap(0) <= 0 {
			continue // not inside this lobe
		}
		// Scan for a sign change, then bisect.
		prevS := 0.0
		const sSteps = 64
		for j := 1; j <= sSteps; j++ {
			s := span * float64(j) / sSteps
			if gap(s) <= 0 {
				root, err := num.Bisect(gap, prevS, s, 1e-7)
				if err == nil && root > best {
					best = root
				}
				break
			}
			prevS = s
		}
	}
	return best
}

// vtcSweeps is the one path of every SNM extraction: the two half-cell VTC
// netlists of one library and flavor (inverter plus access-transistor
// loading, side 0 with output Q's devices, side 1 with QB's), built once and
// re-solved under each perturbation and rail bias with SetFETDVt/SetV. The
// Cell methods build one per call; a Scratch keeps one.
type vtcSweeps struct {
	vtc   [2]*circuit.Circuit
	sweep [2]*circuit.Sweeper

	xs []float64    // swept input (vtcPoints long)
	ys [2][]float64 // each side's output (vtcPoints long)
}

func newVTCSweeps(lib *device.Library, flavor device.Flavor) (*vtcSweeps, error) {
	c := Cell{Lib: lib, Flavor: flavor}
	v := &vtcSweeps{xs: make([]float64, vtcPoints)}
	for side := range v.vtc {
		v.ys[side] = make([]float64, vtcPoints)
		ckt := circuit.New()
		ckt.AddV("vcvdd", "CVDD", circuit.Ground, circuit.DC(0))
		ckt.AddV("vcvss", "CVSS", circuit.Ground, circuit.DC(0))
		ckt.AddV("vwl", "WL", circuit.Ground, circuit.DC(0))
		ckt.AddV("vbl", "BL", circuit.Ground, circuit.DC(0))
		ckt.AddV("vin", "IN", circuit.Ground, circuit.DC(0))
		c.addHalf(ckt, side, "IN", "OUT", "CVDD", "CVSS", "BL", "WL")
		sw, err := ckt.NewSweeper("vin", "OUT")
		if err != nil {
			return nil, err
		}
		v.vtc[side], v.sweep[side] = ckt, sw
	}
	return v, nil
}

// halfVTC sweeps one half-cell's input over [lo, hi] under the given rails
// into the side's output buffer.
func (v *vtcSweeps) halfVTC(side int, dvt Variation, cvdd, cvss, bl, wl, lo, hi float64) (*VTC, error) {
	ckt := v.vtc[side]
	setHalfDVt(ckt, side, "OUT", dvt)
	ckt.SetV("vcvdd", circuit.DC(cvdd))
	ckt.SetV("vcvss", circuit.DC(cvss))
	ckt.SetV("vwl", circuit.DC(wl))
	ckt.SetV("vbl", circuit.DC(bl))
	ckt.SetIC("OUT", cvdd)

	mVTCSweeps.Inc()
	linspaceInto(v.xs, lo, hi)
	if err := v.sweep[side].Sweep(v.xs, v.ys[side]); err != nil {
		return nil, fmt.Errorf("cell: VTC sweep (side %d): %w", side, err)
	}
	return &VTC{X: v.xs, Y: v.ys[side]}, nil
}

// butterfly builds the butterfly under explicit rails. Branch A aliases the
// sweep buffers; the flip of side B allocates its own storage.
func (v *vtcSweeps) butterfly(dvt Variation, cvdd, cvss, bl, wl, lo, hi float64) (*Butterfly, error) {
	a, err := v.halfVTC(0, dvt, cvdd, cvss, bl, wl, lo, hi)
	if err != nil {
		return nil, err
	}
	bRaw, err := v.halfVTC(1, dvt, cvdd, cvss, bl, wl, lo, hi)
	if err != nil {
		return nil, err
	}
	return &Butterfly{A: a, B: bRaw.flip()}, nil
}

// hold builds the butterfly in hold: WL = 0, rails nominal, BLs precharged
// to vdd.
func (v *vtcSweeps) hold(dvt Variation, vdd float64) (*Butterfly, error) {
	return v.butterfly(dvt, vdd, 0, vdd, 0, 0, vdd)
}

// read builds the butterfly during a read access: both access transistors
// on at VWL, both bitlines clamped at Vdd, rails at VDDC/VSSC.
func (v *vtcSweeps) read(dvt Variation, b ReadBias) (*Butterfly, error) {
	lo, hi := math.Min(b.VSSC, 0), math.Max(b.VDDC, b.Vdd)
	return v.butterfly(dvt, b.VDDC, b.VSSC, b.Vdd, b.VWL, lo, hi)
}

// holdSNM returns the hold static noise margin of the perturbed cell.
func (v *vtcSweeps) holdSNM(dvt Variation, vdd float64) (float64, error) {
	sp := obs.StartSpan("cell.hold_snm")
	mSNMExtractions.Inc()
	bf, err := v.hold(dvt, vdd)
	if err != nil {
		return 0, err
	}
	snm, err := bf.SNM()
	if err == nil {
		sp.Float("snm", snm)
		sp.End()
	}
	return snm, err
}

// readSNM returns the read static noise margin of the perturbed cell under
// bias b.
func (v *vtcSweeps) readSNM(dvt Variation, b ReadBias) (float64, error) {
	sp := obs.StartSpan("cell.read_snm")
	mSNMExtractions.Inc()
	bf, err := v.read(dvt, b)
	if err != nil {
		return 0, err
	}
	snm, err := bf.SNM()
	if err == nil {
		sp.Float("vddc", b.VDDC)
		sp.Float("vssc", b.VSSC)
		sp.Float("snm", snm)
		sp.End()
	}
	return snm, err
}

// HoldButterfly returns the two branches of the hold-state butterfly for
// plotting or export (cmd/cellchar -butterfly).
func (c *Cell) HoldButterfly(vdd float64) (*Butterfly, error) {
	v, err := newVTCSweeps(c.Lib, c.Flavor)
	if err != nil {
		return nil, err
	}
	return v.hold(c.DVt, vdd)
}

// ReadButterfly returns the two branches of the read-access butterfly under
// the given assist bias.
func (c *Cell) ReadButterfly(b ReadBias) (*Butterfly, error) {
	v, err := newVTCSweeps(c.Lib, c.Flavor)
	if err != nil {
		return nil, err
	}
	return v.read(c.DVt, b)
}

// HoldSNM returns the hold static noise margin (paper Fig. 2(a)).
func (c *Cell) HoldSNM(vdd float64) (float64, error) {
	v, err := newVTCSweeps(c.Lib, c.Flavor)
	if err != nil {
		return 0, err
	}
	return v.holdSNM(c.DVt, vdd)
}

// ReadSNM returns the read static noise margin under the given assist bias
// (paper Figs. 3(a)-(d)).
func (c *Cell) ReadSNM(b ReadBias) (float64, error) {
	v, err := newVTCSweeps(c.Lib, c.Flavor)
	if err != nil {
		return 0, err
	}
	return v.readSNM(c.DVt, b)
}
