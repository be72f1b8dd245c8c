// Package device implements a compact model for the 7 nm FinFET devices used
// by the paper's SRAM cells and peripheral circuits.
//
// The model is a smoothed EKV-style I-V: an exponential subthreshold region
// blending into a power-law (velocity-saturated) strong-inversion region with
// exponent alpha ≈ 1.3, matching the read-current law the paper fitted to its
// SPICE library (I_read = b·(V_DDC − V_SSC − V_t)^1.3). Widths are quantized
// in fins, as FinFETs require.
//
// Each flavor (LVT/HVT) and polarity (N/P) is numerically calibrated so that
// ION, IOFF and the ION/IOFF ratio reproduce the relations the paper states
// for its library: HVT has 2× lower ION, 20× lower IOFF and 10× higher
// ON/OFF ratio than LVT at the nominal 450 mV supply.
package device

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"sramco/internal/num"
)

// Thermal voltage kT/q at 300 K, in volts.
const PhiT = 0.025852

// Vdd is the nominal supply voltage of the 7 nm library, in volts.
const Vdd = 0.450

// Polarity distinguishes n-channel from p-channel FinFETs.
type Polarity int

const (
	NFET Polarity = iota
	PFET
)

func (p Polarity) String() string {
	if p == PFET {
		return "PFET"
	}
	return "NFET"
}

// Flavor is the threshold-voltage flavor of a device.
type Flavor int

const (
	LVT Flavor = iota // low threshold voltage: fast, leaky
	HVT               // high threshold voltage: slow, very low leakage
)

func (f Flavor) String() string {
	if f == HVT {
		return "HVT"
	}
	return "LVT"
}

// Other returns the complementary flavor — the alternate a hybrid
// (per-row-group) organization assigns to the regions its group mask selects.
func (f Flavor) Other() Flavor {
	if f == LVT {
		return HVT
	}
	return LVT
}

// ParseFlavor parses a flavor name ("lvt" or "hvt", case-insensitive) — the
// inverse of String. It is the single parser shared by the CLIs and the
// serving layer, so the canonical string forms used in cache keys cannot
// drift between entry points.
func ParseFlavor(s string) (Flavor, error) {
	switch {
	case strings.EqualFold(s, "lvt"):
		return LVT, nil
	case strings.EqualFold(s, "hvt"):
		return HVT, nil
	}
	return 0, fmt.Errorf("device: unknown flavor %q (want lvt or hvt)", s)
}

// Params holds the compact-model parameters of one device type (single fin).
type Params struct {
	Polarity Polarity
	Flavor   Flavor

	Vt0    float64 // threshold voltage at Vds = 0 (V), magnitude
	N      float64 // subthreshold ideality factor
	Alpha  float64 // strong-inversion current exponent (velocity saturation)
	I0     float64 // current scale per fin (A / V^Alpha)
	DIBL   float64 // drain-induced barrier lowering (V/V); small for FinFETs
	Lambda float64 // channel-length modulation (1/V)
	VsatK  float64 // fraction of overdrive that sets the saturation voltage

	CgFin float64 // gate capacitance per fin (F)
	CdFin float64 // drain/source junction capacitance per fin (F)
}

// Model is a calibrated device type. It is immutable after construction.
type Model struct {
	Params
}

// ids computes the per-fin drain current for vds ≥ 0 with a threshold shift
// dvt (positive dvt raises the threshold). It is idsGrad's current with the
// partials dropped, so the I–V formula exists once.
func (m *Model) ids(vgs, vds, dvt float64) float64 {
	id, _, _ := m.idsGrad(vgs, vds, dvt)
	return id
}

// Ids returns the per-fin drain current (A) as a function of gate-source and
// drain-source voltage, for the device's own polarity convention:
//
//   - NFET: current flows into the drain when vgs > Vt and vds > 0.
//   - PFET: pass the same node voltages; the model mirrors internally, and a
//     negative value means current flows out of the drain (source→drain
//     conduction), the usual SPICE sign convention.
//
// Negative vds (NFET) is handled by source/drain exchange, keeping the model
// symmetric as required for pass-gates.
func (m *Model) Ids(vgs, vds float64) float64 { return m.IdsShift(vgs, vds, 0) }

// IdsShift is Ids with an additional threshold-voltage shift dvt (used for
// Monte Carlo variation analysis). Positive dvt makes the device weaker for
// both polarities.
func (m *Model) IdsShift(vgs, vds, dvt float64) float64 {
	if m.Polarity == PFET {
		// Mirror into NFET coordinates.
		return -m.idsSym(-vgs, -vds, dvt)
	}
	return m.idsSym(vgs, vds, dvt)
}

// idsSym handles drain/source exchange for negative vds.
func (m *Model) idsSym(vgs, vds, dvt float64) float64 {
	if vds < 0 {
		return -m.ids(vgs-vds, -vds, dvt)
	}
	return m.ids(vgs, vds, dvt)
}

// IdsShiftGrad is IdsShift together with its analytic partial derivatives
// gm = ∂id/∂vgs and gds = ∂id/∂vds, from one pass through the model's
// exp/log1p/pow/tanh. The current is bit-identical to IdsShift's. The PFET
// mirror negates the current and leaves both partials as they are; the
// source/drain exchange of a negative vds maps them to gm′ = −gm and
// gds′ = gm + gds of the exchanged device.
func (m *Model) IdsShiftGrad(vgs, vds, dvt float64) (id, gm, gds float64) {
	if m.Polarity == PFET {
		id, gm, gds = m.idsSymGrad(-vgs, -vds, dvt)
		return -id, gm, gds
	}
	return m.idsSymGrad(vgs, vds, dvt)
}

func (m *Model) idsSymGrad(vgs, vds, dvt float64) (id, gm, gds float64) {
	if vds < 0 {
		id, gm, gds = m.idsGrad(vgs-vds, -vds, dvt)
		return -id, -gm, gm + gds
	}
	return m.idsGrad(vgs, vds, dvt)
}

// idsGrad is the device's I–V formula: the per-fin drain current for
// vds ≥ 0 with a threshold shift dvt, and its partials gm = ∂id/∂vgs and
// gds = ∂id/∂vds.
func (m *Model) idsGrad(vgs, vds, dvt float64) (id, gm, gds float64) {
	vt := m.Vt0 + dvt - m.DIBL*vds
	nphit := m.N * PhiT
	x := (vgs - vt) / nphit
	// Smooth overdrive veff = n·φt·ln(1+e^x), guarded against overflow, and
	// s = ∂veff/∂vgs; DIBL makes ∂veff/∂vds = DIBL·s.
	var veff, s float64
	switch {
	case x > 40:
		veff, s = nphit*x, 1
	case x < -40:
		e := math.Exp(x)
		veff, s = nphit*e, e
	default:
		e := math.Exp(x)
		veff, s = nphit*math.Log1p(e), e/(1+e)
	}
	if veff <= 0 {
		return 0, 0, 0
	}
	vdsat := m.VsatK*veff + 2*PhiT
	u := vds / vdsat
	fsat := math.Tanh(u)
	p := math.Pow(veff, m.Alpha)
	clm := 1 + m.Lambda*vds
	id = m.I0 * p * fsat * clm

	// id = I0·p(veff)·tanh(vds/vdsat(veff))·clm(vds):
	// ∂id/∂veff = I0·clm·(α·p/veff·fsat − p·sech²·u·VsatK/vdsat).
	sech2 := 1 - fsat*fsat
	dVeff := m.I0 * clm * (m.Alpha*p/veff*fsat - p*sech2*u*m.VsatK/vdsat)
	gm = dVeff * s
	gds = dVeff*m.DIBL*s + m.I0*p*(sech2/vdsat*clm+fsat*m.Lambda)
	return id, gm, gds
}

// ION returns the per-fin on current at |vgs| = |vds| = Vdd.
func (m *Model) ION() float64 { return math.Abs(m.IdsShift(m.sign()*Vdd, m.sign()*Vdd, 0)) }

// IOFF returns the per-fin off current at vgs = 0, |vds| = Vdd.
func (m *Model) IOFF() float64 { return math.Abs(m.IdsShift(0, m.sign()*Vdd, 0)) }

// OnOffRatio returns ION/IOFF.
func (m *Model) OnOffRatio() float64 { return m.ION() / m.IOFF() }

func (m *Model) sign() float64 {
	if m.Polarity == PFET {
		return -1
	}
	return 1
}

// SubthresholdSwing returns the modeled subthreshold swing in V/decade,
// measured between IOFF and 10×IOFF.
func (m *Model) SubthresholdSwing() float64 {
	s := m.sign()
	target := m.IOFF() * 10
	v, err := num.Brent(func(vg float64) float64 {
		return math.Abs(m.IdsShift(s*vg, s*Vdd, 0)) - target
	}, 0, m.Vt0, 1e-7)
	if err != nil {
		return math.NaN()
	}
	return v
}

// String identifies the device type.
func (m *Model) String() string {
	return fmt.Sprintf("%s-%s(Vt0=%.0fmV)", m.Flavor, m.Polarity, m.Vt0*1e3)
}

// Library is a calibrated set of the four device types of the 7 nm process.
type Library struct {
	NLVT, NHVT, PLVT, PHVT *Model
}

// Model returns the library model for the given polarity and flavor.
func (l *Library) Model(p Polarity, f Flavor) *Model {
	switch {
	case p == NFET && f == LVT:
		return l.NLVT
	case p == NFET && f == HVT:
		return l.NHVT
	case p == PFET && f == LVT:
		return l.PLVT
	default:
		return l.PHVT
	}
}

// Calibration targets for the default 7 nm library. The absolute ION scale is
// anchored so that the simulated HVT cell read current tracks the paper's
// fitted law I_read = 9.5e-5·(V_DDC−V_SSC−0.335)^1.3; the relative relations
// (HVT = LVT/2 ION, LVT/20 IOFF) are the paper's stated library properties.
const (
	targetIONnLVT  = 23.5e-6  // A/fin
	targetIOFFnLVT = 1.25e-9  // A/fin
	targetIONnHVT  = 11.75e-6 // = LVT/2
	targetIOFFnHVT = 62.5e-12 // = LVT/20
	pfetIONRatio   = 0.85     // PFET ION relative to NFET (FinFETs are nearly balanced)
	pfetIOFFRatio  = 0.85
)

// Default per-fin capacitances (F). Grounded in ITRS-class numbers for a
// short 7 nm fin; calibrated so the array model reproduces the paper's
// delay structure (bitline-dominated read path, Fig. 7(d)).
const (
	defaultCgFin = 0.035e-15
	defaultCdFin = 0.020e-15
)

var (
	defaultOnce sync.Once
	defaultLib  *Library
)

// Default7nm returns the calibrated default 7 nm FinFET library. The library
// is built once and shared; models are immutable.
func Default7nm() *Library {
	defaultOnce.Do(func() {
		defaultLib = &Library{
			NLVT: mustCalibrate(baseParams(NFET, LVT), targetIONnLVT, targetIOFFnLVT),
			NHVT: mustCalibrate(baseParams(NFET, HVT), targetIONnHVT, targetIOFFnHVT),
			PLVT: mustCalibrate(baseParams(PFET, LVT), targetIONnLVT*pfetIONRatio, targetIOFFnLVT*pfetIOFFRatio),
			PHVT: mustCalibrate(baseParams(PFET, HVT), targetIONnHVT*pfetIONRatio, targetIOFFnHVT*pfetIOFFRatio),
		}
	})
	return defaultLib
}

func baseParams(p Polarity, f Flavor) Params {
	return Params{
		Polarity: p,
		Flavor:   f,
		N:        1.42, // with Alpha=1.3 this yields ~65 mV/dec effective swing
		Alpha:    1.3,
		DIBL:     0.020, // FinFETs: negligible DIBL (paper §1)
		Lambda:   0.05,
		VsatK:    0.55,
		CgFin:    defaultCgFin,
		CdFin:    defaultCdFin,
	}
}

// Calibrate solves for (Vt0, I0) such that the model hits the given per-fin
// ION and IOFF at the nominal supply. It returns an error when the targets
// are unreachable within the threshold search window.
func Calibrate(base Params, ion, ioff float64) (*Model, error) {
	if ion <= 0 || ioff <= 0 || ioff >= ion {
		return nil, fmt.Errorf("device: invalid calibration targets ION=%g IOFF=%g", ion, ioff)
	}
	probe := &Model{Params: base}
	probe.I0 = 1
	// With I0 = 1, Ids scales linearly in I0, so the ON/OFF ratio depends on
	// Vt0 alone. Solve ratio(Vt0) = ion/ioff, then set the scale.
	wantRatio := ion / ioff
	ratioErr := func(vt float64) float64 {
		probe.Vt0 = vt
		gOn := math.Abs(probe.IdsShift(probe.sign()*Vdd, probe.sign()*Vdd, 0))
		gOff := math.Abs(probe.IdsShift(0, probe.sign()*Vdd, 0))
		return math.Log(gOn/gOff) - math.Log(wantRatio)
	}
	vt, err := num.Brent(ratioErr, 0.03, 0.44, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("device: calibration failed for %s-%s: %w", base.Flavor, base.Polarity, err)
	}
	probe.Vt0 = vt
	gOn := math.Abs(probe.IdsShift(probe.sign()*Vdd, probe.sign()*Vdd, 0))
	out := base
	out.Vt0 = vt
	out.I0 = ion / gOn
	return &Model{Params: out}, nil
}

func mustCalibrate(base Params, ion, ioff float64) *Model {
	m, err := Calibrate(base, ion, ioff)
	if err != nil {
		panic(err)
	}
	return m
}
