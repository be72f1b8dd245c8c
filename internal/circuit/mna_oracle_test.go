package circuit

import (
	"math"
	"testing"

	"sramco/internal/device"
	"sramco/internal/num"
)

// TestKernelMatchesMNA checks the kernel against the full-MNA reference on
// the package's fixtures: the inverter VTC (one free node of five), a
// 6T-cell operating point with its source currents, and a switching
// inverter transient.
func TestKernelMatchesMNA(t *testing.T) {
	c := scratchInverter()
	xs := num.Linspace(0, device.Vdd, 81)
	sw, err := c.NewSweeper("vin", "OUT")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(xs))
	if err := sw.Sweep(xs, got); err != nil {
		t.Fatal(err)
	}
	want, err := mnaSweep(c, "vin", "OUT", xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if d := math.Abs(got[i] - want[i]); d > 1e-12 {
			t.Errorf("VTC point %d: kernel %v, MNA %v", i, got[i], want[i])
		}
	}

	cell := sixT()
	r, err := cell.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mnaOperatingPoint(cell)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"q", "qb"} {
		if d := math.Abs(r.V(n) - ref.V(n)); d > 1e-12 {
			t.Errorf("6T V(%s): kernel %v, MNA %v", n, r.V(n), ref.V(n))
		}
	}
	// The supply current runs through the on pull-up's ~1 µV drop, where
	// an ulp of the 0.45 V node is ~6·10⁻¹¹ of it (TestCurrentsMatchMNA).
	for _, s := range []string{"vdd", "vwl", "vbl", "vblb"} {
		g, w := r.SourceCurrent(s), ref.SourceCurrent(s)
		if d := math.Abs(g - w); d > 1e-10*math.Abs(w) {
			t.Errorf("6T SourceCurrent(%s): kernel (KCL) %v, MNA branch %v", s, g, w)
		}
	}

	tc := tranInverter()
	opts := TranOpts{TStop: 100e-12, DT: 1e-12, UIC: true}
	res, err := tc.Transient(opts)
	if err != nil {
		t.Fatal(err)
	}
	final, err := mnaTransient(tc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(res.Final("OUT") - final["OUT"]); d > 1e-12 {
		t.Errorf("transient final OUT: kernel %v, MNA %v", res.Final("OUT"), final["OUT"])
	}
}

// sixT is a 6T cell holding '0' on q with the wordline off.
func sixT() *Circuit {
	lib := device.Default7nm()
	c := New()
	c.AddV("vdd", "VDD", Ground, DC(device.Vdd))
	c.AddV("vwl", "wl", Ground, DC(0))
	c.AddV("vbl", "bl", Ground, DC(device.Vdd))
	c.AddV("vblb", "blb", Ground, DC(device.Vdd))
	inverter(c, lib, device.HVT, "q", "qb", "VDD")
	inverter(c, lib, device.HVT, "qb", "q", "VDD")
	c.AddFET(FET{Name: "maxl", Model: lib.NHVT, Fins: 1, D: "bl", G: "wl", S: "q"})
	c.AddFET(FET{Name: "maxr", Model: lib.NHVT, Fins: 1, D: "blb", G: "wl", S: "qb"})
	c.SetIC("q", 0)
	c.SetIC("qb", device.Vdd)
	return c
}

// TestFloatingSourceSolves proves a voltage source with neither terminal on
// ground keeps its branch and solves to the analytic values: 1 V drives
// 1 kΩ, a 0.5 V floating source (positive at b), and 1 kΩ to ground, so
// V(c) = 0.25 V, V(b) = 0.75 V and 0.75 mA flows through both sources.
func TestFloatingSourceSolves(t *testing.T) {
	c := New()
	c.AddV("v1", "a", Ground, DC(1))
	c.AddR("r1", "a", "c", 1e3)
	c.AddV("vf", "b", "c", DC(0.5))
	c.AddR("r2", "b", Ground, 1e3)
	r, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		what      string
		got, want float64
	}{
		{"V(c)", r.V("c"), 0.25},
		{"V(b)", r.V("b"), 0.75},
		{"I(v1)", r.SourceCurrent("v1"), 0.75e-3},
		{"I(vf)", r.SourceCurrent("vf"), 0.75e-3},
	} {
		if math.Abs(w.got-w.want) > 1e-12*math.Abs(w.want) {
			t.Errorf("%s = %v, want %v", w.what, w.got, w.want)
		}
	}
}

// TestTwoGroundedSourcesOnOneNode proves a node that two grounded sources
// drive is still an error, as it is in full MNA: the second source keeps a
// branch whose equation no unknown enters.
func TestTwoGroundedSourcesOnOneNode(t *testing.T) {
	for _, second := range []float64{1, 0.5} {
		c := New()
		c.AddV("v1", "a", Ground, DC(1))
		c.AddV("v2", "a", Ground, DC(second))
		c.AddR("r1", "a", Ground, 1e3)
		if _, err := c.DCOperatingPoint(); err == nil {
			t.Errorf("second source at %g V: solved, want an error", second)
		}
		if _, err := mnaOperatingPoint(c); err == nil {
			t.Errorf("second source at %g V: the MNA reference solved, want an error", second)
		}
	}
}

// TestNoFreeNodeSolves proves a circuit whose every node is pinned solves
// with an empty Newton system, its source currents by KCL: 1 V and 0.4 V
// across 1 kΩ, and an off NFET across 0.45 V that leaks IOFF.
func TestNoFreeNodeSolves(t *testing.T) {
	lib := device.Default7nm()
	c := New()
	c.AddV("v1", "a", Ground, DC(1))
	c.AddV("v2", Ground, "b", DC(-0.4)) // positive terminal on ground: V(b) = 0.4
	c.AddR("r", "a", "b", 1e3)
	c.AddV("vdd", "VDD", Ground, DC(device.Vdd))
	c.AddFET(FET{Name: "moff", Model: lib.NHVT, Fins: 1, D: "VDD", G: Ground, S: Ground})
	r, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mnaOperatingPoint(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		what      string
		got, want float64
	}{
		{"V(b)", r.V("b"), 0.4},
		{"I(v1)", r.SourceCurrent("v1"), 0.6e-3},
		{"I(v2)", r.SourceCurrent("v2"), 0.6e-3},
		{"I(vdd)", r.SourceCurrent("vdd"), lib.NHVT.IOFF()},
	} {
		if math.Abs(w.got-w.want) > 1e-12*math.Abs(w.want) {
			t.Errorf("%s = %v, want %v", w.what, w.got, w.want)
		}
	}
	for _, s := range []string{"v1", "v2", "vdd"} {
		if g, w := r.SourceCurrent(s), ref.SourceCurrent(s); math.Abs(g-w) > 1e-12*math.Abs(w) {
			t.Errorf("I(%s): kernel %v, MNA %v", s, g, w)
		}
	}
}
