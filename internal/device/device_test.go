package device

import (
	"math"
	"testing"
	"testing/quick"
)

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestCalibrationHitsTargets(t *testing.T) {
	lib := Default7nm()
	cases := []struct {
		name      string
		m         *Model
		ion, ioff float64
	}{
		{"NLVT", lib.NLVT, targetIONnLVT, targetIOFFnLVT},
		{"NHVT", lib.NHVT, targetIONnHVT, targetIOFFnHVT},
		{"PLVT", lib.PLVT, targetIONnLVT * pfetIONRatio, targetIOFFnLVT * pfetIOFFRatio},
		{"PHVT", lib.PHVT, targetIONnHVT * pfetIONRatio, targetIOFFnHVT * pfetIOFFRatio},
	}
	for _, c := range cases {
		if e := relErr(c.m.ION(), c.ion); e > 1e-6 {
			t.Errorf("%s ION = %g, want %g (rel err %g)", c.name, c.m.ION(), c.ion, e)
		}
		if e := relErr(c.m.IOFF(), c.ioff); e > 1e-6 {
			t.Errorf("%s IOFF = %g, want %g (rel err %g)", c.name, c.m.IOFF(), c.ioff, e)
		}
	}
}

// TestPaperLibraryRelations checks the three relations the paper states for
// its 7 nm library: HVT has 2× lower ION, 20× lower IOFF, 10× higher ON/OFF.
func TestPaperLibraryRelations(t *testing.T) {
	lib := Default7nm()
	if r := lib.NLVT.ION() / lib.NHVT.ION(); relErr(r, 2) > 1e-6 {
		t.Errorf("ION LVT/HVT = %g, want 2", r)
	}
	if r := lib.NLVT.IOFF() / lib.NHVT.IOFF(); relErr(r, 20) > 1e-6 {
		t.Errorf("IOFF LVT/HVT = %g, want 20", r)
	}
	if r := lib.NHVT.OnOffRatio() / lib.NLVT.OnOffRatio(); relErr(r, 10) > 1e-6 {
		t.Errorf("on/off ratio HVT/LVT = %g, want 10", r)
	}
}

func TestThresholdOrdering(t *testing.T) {
	lib := Default7nm()
	if !(lib.NHVT.Vt0 > lib.NLVT.Vt0) {
		t.Errorf("HVT Vt0 (%g) must exceed LVT Vt0 (%g)", lib.NHVT.Vt0, lib.NLVT.Vt0)
	}
	// The calibrated HVT threshold should land near the paper's fitted
	// 335 mV (the fit lumps the series read path, so allow a window).
	if lib.NHVT.Vt0 < 0.25 || lib.NHVT.Vt0 > 0.42 {
		t.Errorf("HVT Vt0 = %g, expected within [0.25, 0.42]", lib.NHVT.Vt0)
	}
}

func TestSubthresholdSwing(t *testing.T) {
	lib := Default7nm()
	ss := lib.NLVT.SubthresholdSwing()
	if math.IsNaN(ss) {
		t.Fatal("SubthresholdSwing returned NaN")
	}
	if ss < 0.055 || ss > 0.080 {
		t.Errorf("subthreshold swing = %.1f mV/dec, want 55-80 (FinFET-class)", ss*1e3)
	}
}

func TestIdsZeroAtVdsZero(t *testing.T) {
	lib := Default7nm()
	for _, m := range []*Model{lib.NLVT, lib.NHVT, lib.PLVT, lib.PHVT} {
		if got := m.Ids(0.45, 0); got != 0 {
			t.Errorf("%v: Ids(0.45, 0) = %g, want 0", m, got)
		}
	}
}

func TestIdsSourceDrainSymmetry(t *testing.T) {
	m := Default7nm().NLVT
	// Swapping source and drain must negate the current when the gate
	// voltage is re-referenced to the new source.
	vg, vd, vs := 0.45, 0.10, 0.30
	fwd := m.Ids(vg-vs, vd-vs)
	rev := m.Ids(vg-vd, vs-vd)
	if math.Abs(fwd+rev) > 1e-12*math.Max(math.Abs(fwd), 1) {
		t.Errorf("symmetry violated: fwd=%g rev=%g", fwd, rev)
	}
}

func TestPFETMirror(t *testing.T) {
	lib := Default7nm()
	// A PFET with source at Vdd and gate at 0 is on and conducts from
	// source to drain: Ids (into drain) must be negative.
	i := lib.PLVT.Ids(-Vdd, -Vdd)
	if i >= 0 {
		t.Errorf("on PFET Ids = %g, want negative", i)
	}
	if relErr(math.Abs(i), lib.PLVT.ION()) > 1e-9 {
		t.Errorf("|Ids| = %g disagrees with ION() = %g", math.Abs(i), lib.PLVT.ION())
	}
}

// TestIdsMonotone is a property test: drain current must be nondecreasing in
// vgs and in vds (for vds ≥ 0), which the Newton solver relies on.
func TestIdsMonotone(t *testing.T) {
	m := Default7nm().NHVT
	prop := func(a, b, c, d float64) bool {
		vgs1 := math.Mod(math.Abs(a), 0.7)
		vgs2 := math.Mod(math.Abs(b), 0.7)
		if vgs1 > vgs2 {
			vgs1, vgs2 = vgs2, vgs1
		}
		vds1 := math.Mod(math.Abs(c), 0.7)
		vds2 := math.Mod(math.Abs(d), 0.7)
		if vds1 > vds2 {
			vds1, vds2 = vds2, vds1
		}
		if m.Ids(vgs1, vds1) > m.Ids(vgs2, vds1)+1e-15 {
			return false
		}
		return m.Ids(vgs1, vds1) <= m.Ids(vgs1, vds2)+1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdsShiftWeakens(t *testing.T) {
	lib := Default7nm()
	for _, m := range []*Model{lib.NLVT, lib.PLVT} {
		s := m.sign()
		base := math.Abs(m.IdsShift(s*Vdd, s*Vdd, 0))
		weak := math.Abs(m.IdsShift(s*Vdd, s*Vdd, 0.05))
		if weak >= base {
			t.Errorf("%v: +50mV Vt shift should weaken device: %g vs %g", m, weak, base)
		}
	}
}

func TestCalibrateRejectsBadTargets(t *testing.T) {
	base := baseParams(NFET, LVT)
	if _, err := Calibrate(base, -1, 1e-9); err == nil {
		t.Error("expected error for negative ION")
	}
	if _, err := Calibrate(base, 1e-6, 2e-6); err == nil {
		t.Error("expected error for IOFF > ION")
	}
	if _, err := Calibrate(base, 1e-6, 0); err == nil {
		t.Error("expected error for zero IOFF")
	}
}

func TestLibraryModelLookup(t *testing.T) {
	lib := Default7nm()
	if lib.Model(NFET, LVT) != lib.NLVT || lib.Model(NFET, HVT) != lib.NHVT ||
		lib.Model(PFET, LVT) != lib.PLVT || lib.Model(PFET, HVT) != lib.PHVT {
		t.Error("Model lookup mismatch")
	}
}

func TestStringers(t *testing.T) {
	if NFET.String() != "NFET" || PFET.String() != "PFET" {
		t.Error("Polarity.String mismatch")
	}
	if LVT.String() != "LVT" || HVT.String() != "HVT" {
		t.Error("Flavor.String mismatch")
	}
	if s := Default7nm().NHVT.String(); s == "" {
		t.Error("empty Model.String")
	}
}

// TestIdsShiftGradMatchesFiniteDifferences is the oracle of the analytic
// conductances the circuit kernel stamps: over the four default models,
// ΔVt ∈ [−0.3, 0.3] V, vgs ∈ [−1.0, 0.8] V and vds ∈ [−0.8, 0.8] V — both
// source/drain orientations, both polarities' mirrors and both asymptotic
// branches of the smoothed overdrive (vgs reaches below −0.8 V because
// x < −40 needs vgs − Vt < −1.47 V) — IdsShiftGrad's current must equal
// IdsShift's bit for bit, and its gm and gds must match central differences
// of IdsShift at h = 10⁻⁷ V to 10⁻⁶ relative. The vds grid has an even
// number of points, so vds = 0, where the exchange makes a central
// difference one-sided, is not on it.
func TestIdsShiftGradMatchesFiniteDifferences(t *testing.T) {
	const (
		h      = 1e-7
		relTol = 1e-6
		points = 40
	)
	grid := func(lo, hi float64, k int) []float64 {
		out := make([]float64, k)
		for i := range out {
			out[i] = lo + (hi-lo)*float64(i)/float64(k-1)
		}
		return out
	}
	rel := func(a, b float64) float64 {
		if d := math.Abs(a - b); d > 0 {
			return d / math.Max(math.Abs(a), math.Abs(b))
		}
		return 0
	}
	lib := Default7nm()
	var worst float64
	var above, below, reversed int
	for _, m := range []*Model{lib.NLVT, lib.NHVT, lib.PLVT, lib.PHVT} {
		for _, dvt := range grid(-0.3, 0.3, 7) {
			for _, vgs := range grid(-1.0, 0.8, points) {
				for _, vds := range grid(-0.8, 0.8, points) {
					id, gm, gds := m.IdsShiftGrad(vgs, vds, dvt)
					if want := m.IdsShift(vgs, vds, dvt); id != want {
						t.Fatalf("%v vgs=%g vds=%g dvt=%g: IdsShiftGrad current %v != IdsShift %v", m, vgs, vds, dvt, id, want)
					}
					fgm := (m.IdsShift(vgs+h, vds, dvt) - m.IdsShift(vgs-h, vds, dvt)) / (2 * h)
					fgds := (m.IdsShift(vgs, vds+h, dvt) - m.IdsShift(vgs, vds-h, dvt)) / (2 * h)
					for _, c := range []struct {
						name     string
						got, ref float64
					}{{"gm", gm, fgm}, {"gds", gds, fgds}} {
						e := rel(c.got, c.ref)
						if e > relTol {
							t.Fatalf("%v vgs=%g vds=%g dvt=%g: %s = %v, central difference %v (rel %.2g)", m, vgs, vds, dvt, c.name, c.got, c.ref, e)
						}
						worst = math.Max(worst, e)
					}
					// Which branch of ids did this point take?
					g, d := vgs, vds
					if m.Polarity == PFET {
						g, d = -g, -d
					}
					if d < 0 {
						g, d = g-d, -d
						reversed++
					}
					switch x := (g - (m.Vt0 + dvt - m.DIBL*d)) / (m.N * PhiT); {
					case x > 40:
						above++
					case x < -40:
						below++
					}
				}
			}
		}
	}
	if above == 0 || below == 0 || reversed == 0 {
		t.Fatalf("grid misses a branch: %d points with x > 40, %d with x < −40, %d with exchanged source/drain", above, below, reversed)
	}
	t.Logf("worst relative conductance error %.2g (x > 40: %d points, x < −40: %d, exchanged: %d)", worst, above, below, reversed)
}
