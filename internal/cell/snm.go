package cell

import (
	"fmt"
	"math"

	"sramco/internal/circuit"
	"sramco/internal/device"
	"sramco/internal/num"
)

// vtcPoints is the sweep resolution used for butterfly curves.
const vtcPoints = 181

// VTC is a sampled voltage transfer curve y(x), monotone nonincreasing.
type VTC struct {
	X, Y []float64
}

// Butterfly holds the two butterfly branches in a common (x, y) plane:
// A is the left half-cell VTC y = f(x); B is the mirrored right half-cell
// VTC y = g⁻¹(x).
type Butterfly struct {
	A, B *VTC
}

// SNM returns the static noise margin: the side of the largest square that
// fits inside each butterfly lobe, minimized over the two lobes (Seevinck).
// A non-bistable butterfly (fewer than two lobes) yields 0. It interpolates
// the branches in place and allocates nothing.
func (b *Butterfly) SNM() (float64, error) {
	fa, err := num.NewLinear(b.A.X, b.A.Y)
	if err != nil {
		return 0, fmt.Errorf("cell: butterfly branch A: %w", err)
	}
	fb, err := num.NewLinear(b.B.X, b.B.Y)
	if err != nil {
		return 0, fmt.Errorf("cell: butterfly branch B: %w", err)
	}
	lobe1 := maxSquare(&fa, &fb, b.A.X[0], b.A.X[len(b.A.X)-1])
	lobe2 := maxSquare(&fb, &fa, b.B.X[0], b.B.X[len(b.B.X)-1])
	return math.Min(lobe1, lobe2), nil
}

// maxSquare returns the side of the largest square with its upper-left
// corner on curve up and lower-right corner on curve low, i.e. the largest s
// such that up(x) − s = low(x + s) for some x — the embedded square of one
// butterfly lobe. Returns 0 when the lobe is absent.
//
// For each of 161 x it scans s upward for the first sign change of the gap
// and bisects inside it. Only a bracket whose upper end s exceeds the best
// side so far is bisected: Bisect's root lies in [prevS, s], so any other
// cannot raise the maximum. up(x) is evaluated once per x, and both
// interpolants walk from the previous probe's segment, so the answer is the
// same as with a fresh binary search per probe.
func maxSquare(up, low *num.Linear, lo, hi float64) float64 {
	span := hi - lo
	best := 0.0
	const xSteps = 160
	for i := 0; i <= xSteps; i++ {
		x := lo + span*float64(i)/xSteps
		ux := up.Eval(x)
		gap := func(s float64) float64 { return ux - s - low.Eval(x+s) }
		if gap(0) <= 0 {
			continue // not inside this lobe
		}
		// Scan for a sign change, then bisect.
		prevS := 0.0
		const sSteps = 64
		for j := 1; j <= sSteps; j++ {
			s := span * float64(j) / sSteps
			if gap(s) <= 0 {
				if s > best {
					root, err := num.Bisect(gap, prevS, s, 1e-7)
					if err == nil && root > best {
						best = root
					}
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
// loading, side 0 with output Q's devices, side 1 with QB's), built once
// per Scratch and re-solved under each perturbation and rail bias in place.
type vtcSweeps struct {
	vtc   [2]*circuit.Circuit
	sweep [2]*circuit.Sweeper

	cvdd, cvss, bl, wl circuit.Level // the rails, shared by both netlists

	xs     []float64    // swept input (vtcPoints long)
	ys     [2][]float64 // each side's output (vtcPoints long)
	fx, fy []float64    // side 1's VTC mirrored across the diagonal

	a, b VTC       // the butterfly's branches, over the buffers above
	bf   Butterfly // {&a, &b}
}

func newVTCSweeps(lib *device.Library, flavor device.Flavor) *vtcSweeps {
	c := Cell{Lib: lib, Flavor: flavor}
	v := &vtcSweeps{
		xs: make([]float64, vtcPoints),
		fx: make([]float64, 0, vtcPoints),
		fy: make([]float64, 0, vtcPoints),
	}
	v.bf = Butterfly{A: &v.a, B: &v.b}
	for side := range v.vtc {
		v.ys[side] = make([]float64, vtcPoints)
		ckt := circuit.New()
		ckt.AddV("vcvdd", "CVDD", circuit.Ground, &v.cvdd)
		ckt.AddV("vcvss", "CVSS", circuit.Ground, &v.cvss)
		ckt.AddV("vwl", "WL", circuit.Ground, &v.wl)
		ckt.AddV("vbl", "BL", circuit.Ground, &v.bl)
		ckt.AddV("vin", "IN", circuit.Ground, circuit.DC(0))
		c.addHalf(ckt, side, "IN", "OUT", "CVDD", "CVSS", "BL", "WL")
		sw, err := ckt.NewSweeper("vin", "OUT")
		if err != nil {
			panic(err) // the netlist above has both
		}
		v.vtc[side], v.sweep[side] = ckt, sw
	}
	return v
}

// halfVTC sweeps one half-cell's input over v.xs, under the rails set on
// v, into the side's output buffer.
func (v *vtcSweeps) halfVTC(side int, dvt Variation) error {
	ckt := v.vtc[side]
	for t := Transistor(side * 3); t < Transistor(side*3+3); t++ {
		ckt.SetFETDVt(t.String(), dvt[t])
	}
	ckt.SetIC("OUT", v.cvdd.V)

	mVTCSweeps.Inc()
	if err := v.sweep[side].Sweep(v.xs, v.ys[side]); err != nil {
		return fmt.Errorf("cell: VTC sweep (side %d): %w", side, err)
	}
	return nil
}

// butterfly builds the butterfly under explicit rails into the sweeps' own
// buffers: branch A is side 0's VTC as swept over [lo, hi], branch B side
// 1's mirrored across the diagonal — the curve x = g(y) becomes
// y = g⁻¹(x), resampled with strictly increasing x. The result is valid
// until the next sweep.
func (v *vtcSweeps) butterfly(dvt Variation, cvdd, cvss, bl, wl, lo, hi float64) (*Butterfly, error) {
	v.cvdd.V, v.cvss.V, v.bl.V, v.wl.V = cvdd, cvss, bl, wl
	linspaceInto(v.xs, lo, hi)
	for side := range v.ys {
		if err := v.halfVTC(side, dvt); err != nil {
			return nil, err
		}
	}
	v.a = VTC{X: v.xs, Y: v.ys[0]}
	// Walking side 1 from last to first sample yields ascending x
	// (= its output) because the VTC is nonincreasing.
	fx, fy := v.fx[:0], v.fy[:0]
	for i := len(v.xs) - 1; i >= 0; i-- {
		x, y := v.ys[1][i], v.xs[i]
		if len(fx) > 0 && x <= fx[len(fx)-1]+1e-9 {
			continue // drop duplicates from rail-flat segments
		}
		fx = append(fx, x)
		fy = append(fy, y)
	}
	v.b = VTC{X: fx, Y: fy}
	return &v.bf, nil
}

// linspaceInto fills dst exactly like num.Linspace(lo, hi, len(dst)).
func linspaceInto(dst []float64, lo, hi float64) {
	n := len(dst)
	step := (hi - lo) / float64(n-1)
	for i := range dst {
		dst[i] = lo + float64(i)*step
	}
	dst[n-1] = hi
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

// HoldButterfly returns the two branches of the hold-state butterfly for
// plotting or export (cmd/cellchar -butterfly).
func (c *Cell) HoldButterfly(vdd float64) (*Butterfly, error) {
	return c.scratch().sweeps().hold(c.DVt, vdd)
}

// ReadButterfly returns the two branches of the read-access butterfly under
// the given assist bias.
func (c *Cell) ReadButterfly(b ReadBias) (*Butterfly, error) {
	return c.scratch().sweeps().read(c.DVt, b)
}

// HoldSNM returns the hold static noise margin (paper Fig. 2(a)).
func (c *Cell) HoldSNM(vdd float64) (float64, error) {
	return c.scratch().HoldSNM(c.DVt, vdd)
}

// ReadSNM returns the read static noise margin under the given assist bias
// (paper Figs. 3(a)-(d)).
func (c *Cell) ReadSNM(b ReadBias) (float64, error) {
	return c.scratch().ReadSNM(c.DVt, b)
}
