package cell

import (
	"fmt"
	"testing"

	"sramco/internal/circuit"
	"sramco/internal/device"
)

// blDischargeDelay simulates the read bitline discharge end to end: the
// bitline is a real capacitor cBL precharged to Vdd, the wordline steps on,
// and the accessed cell sinks charge until the bitline has fallen by
// deltaV (the sense threshold). This is the transient ground truth for the
// paper's Eq. (1) estimate D = C_BL·ΔV_S/I_read, which evaluates the read
// current at the initial bias only.
func blDischargeDelay(c *Cell, b ReadBias, cBL, deltaV float64) (float64, error) {
	const (
		tWL  = 2e-12
		rise = 1e-12
	)
	ckt := circuit.New()
	ckt.AddV("vcvdd", "CVDD", circuit.Ground, circuit.DC(b.VDDC))
	ckt.AddV("vcvss", "CVSS", circuit.Ground, circuit.DC(b.VSSC))
	ckt.AddV("vwl", "WL", circuit.Ground, circuit.Step(0, b.VWL, tWL, rise))
	ckt.AddV("vblb", "BLB", circuit.Ground, circuit.DC(b.Vdd))
	// The bitline floats on its capacitance, precharged to Vdd.
	ckt.AddC("cbl", "BL", circuit.Ground, cBL)
	c.addHalf(ckt, 0, "QB", "Q", "CVDD", "CVSS", "BL", "WL")
	c.addHalf(ckt, 1, "Q", "QB", "CVDD", "CVSS", "BLB", "WL")
	cq := c.StorageNodeCap()
	ckt.AddC("cq", "Q", circuit.Ground, cq)
	ckt.AddC("cqb", "QB", circuit.Ground, cq)
	ckt.SetIC("Q", b.VSSC)
	ckt.SetIC("QB", b.VDDC)
	ckt.SetIC("BL", b.Vdd)

	// Budget the window from the analytical estimate, with ample slack.
	iRead, err := c.ReadCurrent(b)
	if err != nil {
		return 0, err
	}
	est := cBL * deltaV / iRead
	tStop := tWL + 6*est
	res, err := ckt.Transient(circuit.TranOpts{TStop: tStop, DT: tStop / 3000, UIC: true})
	if err != nil {
		return 0, fmt.Errorf("BL discharge transient: %w", err)
	}
	tHalfWL, err := res.CrossTime("WL", 0.5*b.Vdd, circuit.RisingEdge, 0)
	if err != nil {
		return 0, err
	}
	tSense, err := res.CrossTime("BL", b.Vdd-deltaV, circuit.FallingEdge, tHalfWL)
	if err != nil {
		return 0, fmt.Errorf("bitline never reached the sense threshold: %w", err)
	}
	return tSense - tHalfWL, nil
}

// TestEq1AgreesWithTransient validates the paper's Eq. (1) delay model
// against full transient simulation: D = C_BL·ΔV_S/I_read must agree with
// the simulated bitline discharge within a modest band (the analytical form
// uses the initial-bias current; the transient current varies slightly as
// the bitline falls).
func TestEq1AgreesWithTransient(t *testing.T) {
	c := New(device.HVT)
	const (
		cBL    = 5e-15 // ≈ a 64-cell column
		deltaV = 0.120
	)
	for _, b := range []ReadBias{
		NominalRead(vdd),
		{Vdd: vdd, VDDC: 0.55, VSSC: 0, VWL: vdd},
		{Vdd: vdd, VDDC: 0.55, VSSC: -0.24, VWL: vdd},
	} {
		iRead, err := c.ReadCurrent(b)
		if err != nil {
			t.Fatal(err)
		}
		analytic := cBL * deltaV / iRead
		sim, err := blDischargeDelay(c, b, cBL, deltaV)
		if err != nil {
			t.Fatalf("bias %+v: %v", b, err)
		}
		ratio := sim / analytic
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("bias VDDC=%g VSSC=%g: transient %g vs Eq.(1) %g (ratio %.2f, want 0.5-2.0)",
				b.VDDC, b.VSSC, sim, analytic, ratio)
		}
	}
}

// TestBLDischargeFasterWithNegativeGnd checks the transient ground truth
// reproduces Fig. 3(c)'s ordering, independent of the analytical model.
func TestBLDischargeFasterWithNegativeGnd(t *testing.T) {
	c := New(device.HVT)
	const cBL, dv = 5e-15, 0.120
	b0 := ReadBias{Vdd: vdd, VDDC: 0.55, VSSC: 0, VWL: vdd}
	b1 := ReadBias{Vdd: vdd, VDDC: 0.55, VSSC: -0.24, VWL: vdd}
	d0, err := blDischargeDelay(c, b0, cBL, dv)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := blDischargeDelay(c, b1, cBL, dv)
	if err != nil {
		t.Fatal(err)
	}
	if !(d1 < d0/1.8) {
		t.Errorf("negative Gnd transient speedup only %g -> %g", d0, d1)
	}
}
