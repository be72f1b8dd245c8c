package cell

import (
	"math"
	"testing"

	"sramco/internal/device"
	"sramco/internal/obs"
)

const vdd = device.Vdd

func TestLeakagePowerMatchesPaperAnchors(t *testing.T) {
	// Paper §5: P_leak(6T-LVT) = 1.692 nW, P_leak(6T-HVT) = 0.082 nW at
	// 450 mV. Our simulated cell must land within 15% of both, and the
	// ratio must be ≈20× (the library relation).
	lvt, err := New(device.LVT).LeakagePower(vdd)
	if err != nil {
		t.Fatal(err)
	}
	hvt, err := New(device.HVT).LeakagePower(vdd)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(lvt-1.692e-9) / 1.692e-9; e > 0.15 {
		t.Errorf("LVT leakage = %g, want ≈1.692nW (err %.0f%%)", lvt, e*100)
	}
	if e := math.Abs(hvt-0.082e-9) / 0.082e-9; e > 0.15 {
		t.Errorf("HVT leakage = %g, want ≈0.082nW (err %.0f%%)", hvt, e*100)
	}
	if r := lvt / hvt; r < 15 || r > 25 {
		t.Errorf("leakage ratio = %.1f, want ≈20", r)
	}
}

func TestLeakageDropsWithVdd(t *testing.T) {
	c := New(device.HVT)
	prev := math.Inf(1)
	for _, v := range []float64{0.45, 0.35, 0.25, 0.15} {
		p, err := c.LeakagePower(v)
		if err != nil {
			t.Fatalf("leakage at %g: %v", v, err)
		}
		if p >= prev {
			t.Errorf("leakage at %gV (%g) not below leakage at higher Vdd (%g)", v, p, prev)
		}
		prev = p
	}
}

func TestHoldSNMProperties(t *testing.T) {
	lvt, err := New(device.LVT).HoldSNM(vdd)
	if err != nil {
		t.Fatal(err)
	}
	hvt, err := New(device.HVT).HoldSNM(vdd)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 2(a): HSNM of both flavors exceeds 35% of Vdd at nominal;
	// HVT ≥ LVT.
	if lvt < 0.35*vdd {
		t.Errorf("LVT HSNM = %g, want ≥ 0.35·Vdd", lvt)
	}
	if hvt < lvt-0.005 {
		t.Errorf("HVT HSNM (%g) should not be materially below LVT (%g)", hvt, lvt)
	}
	// SNM can never exceed Vdd/2.
	if lvt > vdd/2 || hvt > vdd/2 {
		t.Errorf("HSNM exceeds Vdd/2: lvt=%g hvt=%g", lvt, hvt)
	}
}

func TestHoldSNMDecreasesWithVdd(t *testing.T) {
	c := New(device.HVT)
	prev := math.Inf(1)
	for _, v := range []float64{0.45, 0.35, 0.25} {
		snm, err := c.HoldSNM(v)
		if err != nil {
			t.Fatalf("HSNM at %g: %v", v, err)
		}
		if snm >= prev {
			t.Errorf("HSNM at %gV (%g) should fall with Vdd (prev %g)", v, snm, prev)
		}
		prev = snm
	}
}

func TestReadSNMBelowHoldSNM(t *testing.T) {
	for _, f := range []device.Flavor{device.LVT, device.HVT} {
		c := New(f)
		h, err := c.HoldSNM(vdd)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.ReadSNM(NominalRead(vdd))
		if err != nil {
			t.Fatal(err)
		}
		if r >= h {
			t.Errorf("%v: RSNM (%g) must be below HSNM (%g)", f, r, h)
		}
		if r <= 0 {
			t.Errorf("%v: RSNM = %g, cell must still be read-stable", f, r)
		}
	}
}

func TestHVTReadSNMExceedsLVT(t *testing.T) {
	// Paper Fig. 3(a): RSNM of 6T-HVT is larger than 6T-LVT (1.9× in their
	// library; we require a clear improvement).
	lvt, err := New(device.LVT).ReadSNM(NominalRead(vdd))
	if err != nil {
		t.Fatal(err)
	}
	hvt, err := New(device.HVT).ReadSNM(NominalRead(vdd))
	if err != nil {
		t.Fatal(err)
	}
	if hvt < 1.2*lvt {
		t.Errorf("HVT RSNM (%g) should clearly exceed LVT RSNM (%g)", hvt, lvt)
	}
}

func TestVddBoostImprovesRSNM(t *testing.T) {
	// Paper Fig. 3(b): RSNM increases with VDDC.
	c := New(device.HVT)
	prev := -1.0
	for _, vddc := range []float64{0.45, 0.50, 0.55, 0.60, 0.64} {
		b := NominalRead(vdd)
		b.VDDC = vddc
		snm, err := c.ReadSNM(b)
		if err != nil {
			t.Fatalf("RSNM at VDDC=%g: %v", vddc, err)
		}
		if snm <= prev {
			t.Errorf("RSNM at VDDC=%g (%g) not above previous (%g)", vddc, snm, prev)
		}
		prev = snm
	}
}

func TestNegativeGndBoostsReadCurrent(t *testing.T) {
	// Paper Fig. 3(c) / §5: negative Gnd strongly increases I_read; RSNM is
	// mildly improved (both PD and AX get stronger).
	c := New(device.HVT)
	b0 := NominalRead(vdd)
	i0, err := c.ReadCurrent(b0)
	if err != nil {
		t.Fatal(err)
	}
	b := b0
	b.VSSC = -0.24
	i1, err := c.ReadCurrent(b)
	if err != nil {
		t.Fatal(err)
	}
	if gain := i1 / i0; gain < 2.5 || gain > 6 {
		t.Errorf("I_read gain at VSSC=-240mV = %.2f×, want 2.5-6× (paper: ≈4.3×)", gain)
	}
	s0, err := c.ReadSNM(b0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.ReadSNM(b)
	if err != nil {
		t.Fatal(err)
	}
	if s1 < s0 {
		t.Errorf("negative Gnd should not degrade RSNM here: %g -> %g", s0, s1)
	}
	if s1 > 1.5*s0 {
		t.Errorf("negative Gnd RSNM influence should be mild: %g -> %g", s0, s1)
	}
}

func TestWLUnderdriveTradeoff(t *testing.T) {
	// Paper Fig. 3(d): WL underdrive raises RSNM but cuts read current.
	c := New(device.HVT)
	b := NominalRead(vdd)
	snmNom, err := c.ReadSNM(b)
	if err != nil {
		t.Fatal(err)
	}
	iNom, err := c.ReadCurrent(b)
	if err != nil {
		t.Fatal(err)
	}
	b.VWL = 0.30
	snmUD, err := c.ReadSNM(b)
	if err != nil {
		t.Fatal(err)
	}
	iUD, err := c.ReadCurrent(b)
	if err != nil {
		t.Fatal(err)
	}
	if snmUD <= snmNom {
		t.Errorf("WLUD must raise RSNM: %g -> %g", snmNom, snmUD)
	}
	if iUD >= iNom {
		t.Errorf("WLUD must cut read current: %g -> %g", iNom, iUD)
	}
}

func TestHVTReadCurrentLowerThanLVT(t *testing.T) {
	lvt, err := New(device.LVT).ReadCurrent(NominalRead(vdd))
	if err != nil {
		t.Fatal(err)
	}
	hvt, err := New(device.HVT).ReadCurrent(NominalRead(vdd))
	if err != nil {
		t.Fatal(err)
	}
	if r := lvt / hvt; r < 1.5 || r > 3.5 {
		t.Errorf("I_read LVT/HVT = %.2f, want ≈2 (paper library relation)", r)
	}
}

func TestWriteMarginRespondsToAssists(t *testing.T) {
	c := New(device.HVT)
	wmNom, err := c.WriteMargin(NominalWrite(vdd))
	if err != nil {
		t.Fatal(err)
	}
	// WLOD raises WM (paper Fig. 5(a)).
	bOD := NominalWrite(vdd)
	bOD.VWL = 0.54
	wmOD, err := c.WriteMargin(bOD)
	if err != nil {
		t.Fatal(err)
	}
	if wmOD <= wmNom {
		t.Errorf("WLOD must raise WM: %g -> %g", wmNom, wmOD)
	}
	// Negative BL raises WM (paper Fig. 5(b)).
	bNB := NominalWrite(vdd)
	bNB.VBL = -0.10
	wmNB, err := c.WriteMargin(bNB)
	if err != nil {
		t.Fatal(err)
	}
	if wmNB <= wmNom {
		t.Errorf("negative BL must raise WM: %g -> %g", wmNom, wmNB)
	}
}

func TestPaperVWLStarAnchors(t *testing.T) {
	// Paper §5: the minimum VWL meeting WM ≥ 0.35·Vdd is 490 mV for LVT and
	// 540 mV for HVT. Allow ±40 mV on our simulated substrate.
	delta := 0.35 * vdd
	lvt, err := New(device.LVT).MinVWLForWriteMargin(NominalWrite(vdd), delta, 0.70)
	if err != nil {
		t.Fatal(err)
	}
	hvt, err := New(device.HVT).MinVWLForWriteMargin(NominalWrite(vdd), delta, 0.70)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lvt-0.49) > 0.04 {
		t.Errorf("LVT VWL* = %g, paper: 0.49 (±40mV)", lvt)
	}
	if math.Abs(hvt-0.54) > 0.04 {
		t.Errorf("HVT VWL* = %g, paper: 0.54 (±40mV)", hvt)
	}
	if hvt <= lvt {
		t.Errorf("HVT VWL* (%g) must exceed LVT VWL* (%g)", hvt, lvt)
	}
}

// TestVWLStarPinned pins the simulated-mode VWL* rail (δ = 0.35·Vdd, search
// ceiling Vdd + 0.30 V) at three supplies for both flavors, as 10 mV grid
// steps above Vdd. At each pinned level the write margin clears δ by at
// least 0.82 mV, so a nanovolt-level change in how the trip is computed
// cannot move these values; anything larger is a physics change.
func TestVWLStarPinned(t *testing.T) {
	cases := []struct {
		vdd      float64
		lvt, hvt int // grid steps above Vdd
	}{
		{0.40, 5, 7},
		{0.45, 4, 7},
		{0.50, 4, 7},
	}
	for _, tc := range cases {
		for _, f := range []struct {
			flavor device.Flavor
			steps  int
		}{{device.LVT, tc.lvt}, {device.HVT, tc.hvt}} {
			got, err := New(f.flavor).MinVWLForWriteMargin(NominalWrite(tc.vdd), 0.35*tc.vdd, tc.vdd+0.30)
			if err != nil {
				t.Fatalf("%v at Vdd=%g: %v", f.flavor, tc.vdd, err)
			}
			if want := tc.vdd + float64(f.steps)*0.010; got != want {
				t.Errorf("%v at Vdd=%g: VWL* = %v, want %v", f.flavor, tc.vdd, got, want)
			}
		}
	}
}

// TestVWLStarAboveVddTrip covers a cell whose trip lies above Vdd: HVT with
// both access transistors 100 mV weaker trips at ~0.46 V, so every grid
// level up to ~0.61 V fails the margin — the search must read those levels
// as failing, not abort at the first one the cell cannot write at.
func TestVWLStarAboveVddTrip(t *testing.T) {
	c := New(device.HVT)
	c.DVt[AXL], c.DVt[AXR] = 0.10, 0.10
	trip, err := c.WriteTripWL(WriteBias{Vdd: vdd, VWL: vdd + 0.30})
	if err != nil {
		t.Fatal(err)
	}
	if trip <= vdd {
		t.Fatalf("trip %g, want above Vdd = %g for this case", trip, vdd)
	}
	got, err := c.MinVWLForWriteMargin(NominalWrite(vdd), 0.35*vdd, vdd+0.30)
	if err != nil {
		t.Fatalf("VWL* search failed: %v", err)
	}
	if want := vdd + 17*0.010; got != want {
		t.Errorf("VWL* = %v, want %v (trip %.4f + δ %.4f, on the 10 mV grid)", got, want, trip, 0.35*vdd)
	}
}

func TestWriteDelayProperties(t *testing.T) {
	c := New(device.HVT)
	dNom, err := c.WriteDelay(NominalWrite(vdd))
	if err != nil {
		t.Fatal(err)
	}
	if dNom <= 0 || dNom > 50e-12 {
		t.Fatalf("write delay = %g, want a few ps", dNom)
	}
	// WLOD speeds up the write (paper Fig. 5(a)).
	b := NominalWrite(vdd)
	b.VWL = 0.60
	dOD, err := c.WriteDelay(b)
	if err != nil {
		t.Fatal(err)
	}
	if dOD >= dNom {
		t.Errorf("WLOD must cut write delay: %g -> %g", dNom, dOD)
	}
}

func TestVariationShiftsMargins(t *testing.T) {
	// Lowering all six thresholds makes the HVT cell LVT-like, so its RSNM
	// must move toward the (lower) LVT value — the same ordering the paper
	// reports between the two flavors (Fig. 3(a)).
	nom := New(device.HVT)
	snmNom, err := nom.ReadSNM(NominalRead(vdd))
	if err != nil {
		t.Fatal(err)
	}
	var v Variation
	for i := range v {
		v[i] = -0.05
	}
	shifted := &Cell{Lib: device.Default7nm(), Flavor: device.HVT, DVt: v}
	snmShifted, err := shifted.ReadSNM(NominalRead(vdd))
	if err != nil {
		t.Fatal(err)
	}
	if snmShifted >= snmNom {
		t.Errorf("lowering all Vt must reduce RSNM toward LVT: %g -> %g", snmNom, snmShifted)
	}
}

func TestAsymmetricVariationBreaksSymmetry(t *testing.T) {
	var v Variation
	v[PDL] = 0.06
	c := &Cell{Lib: device.Default7nm(), Flavor: device.LVT, DVt: v}
	bf, err := c.ReadButterfly(NominalRead(vdd))
	if err != nil {
		t.Fatal(err)
	}
	snm, err := bf.SNM()
	if err != nil {
		t.Fatal(err)
	}
	sym, err := New(device.LVT).ReadSNM(NominalRead(vdd))
	if err != nil {
		t.Fatal(err)
	}
	if snm >= sym {
		t.Errorf("single-sided variation should reduce SNM: %g vs %g", snm, sym)
	}
}

func TestReadCurrentFitExponent(t *testing.T) {
	// Paper §5: I_read = b·(V_DDC−V_SSC−V_t)^a with a = 1.3 for HVT.
	c := New(device.HVT)
	rb := NominalRead(vdd)
	rb.VDDC = 0.55
	vsscs := []float64{0, -0.04, -0.08, -0.12, -0.16, -0.20, -0.24}
	vt := c.Lib.NHVT.Vt0
	a, b, err := c.ReadCurrentFit(rb, vsscs, vt)
	if err != nil {
		t.Fatal(err)
	}
	if a < 0.9 || a > 1.8 {
		t.Errorf("fit exponent a = %.2f, want ≈1.3 (paper)", a)
	}
	if b <= 0 {
		t.Errorf("fit coefficient b = %g, want positive", b)
	}
}

func TestTransistorString(t *testing.T) {
	if PUL.String() != "PUL" || AXR.String() != "AXR" {
		t.Error("Transistor.String mismatch")
	}
	if Transistor(99).String() == "" {
		t.Error("out-of-range Transistor.String empty")
	}
}

func TestStorageNodeCapPositive(t *testing.T) {
	if c := New(device.LVT).StorageNodeCap(); c <= 0 || c > 1e-15 {
		t.Errorf("storage node cap = %g, want sub-fF positive", c)
	}
}

// TestVDDCStarSNMFromProbe checks the read SNM MinVDDCForReadSNM returns:
// bit-identical to a fresh extraction at the returned VDDC, and taken from
// the search's last passing probe with no extraction besides the probes.
// It is also the regression test of the off-grid vMax: with vMax 5 mV above
// the top 10 mV level, the search returns that level when it meets the
// target, and errors when only vMax itself does — it used to round the
// level count up and return a level above vMax that it never probed.
func TestVDDCStarSNMFromProbe(t *testing.T) {
	extractions := func() int64 { return obs.Default().CounterValue("cell.snm.extractions") }
	probes := func() int64 { return obs.Default().CounterValue("cell.rail.search_probes") }
	for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
		c := New(flavor)
		b := NominalRead(vdd)
		snmAt := func(vddc float64) float64 {
			snm, err := c.ReadSNM(ReadBias{Vdd: vdd, VDDC: vddc, VWL: vdd})
			if err != nil {
				t.Fatal(err)
			}
			return snm
		}
		top := vdd + 0.30 // the grid's top level below an off-grid vdd + 0.305
		atTop, atVMax := snmAt(top), snmAt(vdd+0.305)
		if !(atVMax > atTop) {
			t.Fatalf("%v: read SNM %v at vMax not above %v at the top grid level", flavor, atVMax, atTop)
		}
		for _, tc := range []struct {
			target, vMax float64
			want         float64 // the returned VDDC; 0: any level up to vMax
		}{
			{0.35 * vdd, vdd + 0.30, 0},
			{atTop, vdd + 0.305, top},
		} {
			e0, p0 := extractions(), probes()
			vddc, snm, err := c.MinVDDCForReadSNM(b, tc.target, tc.vMax)
			if err != nil {
				t.Fatalf("%v target %g: %v", flavor, tc.target, err)
			}
			if got, want := extractions()-e0, probes()-p0; got != want {
				t.Errorf("%v target %g: %d extractions for %d probes", flavor, tc.target, got, want)
			}
			if vddc > tc.vMax || (tc.want != 0 && vddc != tc.want) {
				t.Errorf("%v target %g: VDDC %v, want %v (vMax %v)", flavor, tc.target, vddc, tc.want, tc.vMax)
			}
			bb := b
			bb.VDDC = vddc
			want, err := c.ReadSNM(bb)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(snm) != math.Float64bits(want) || snm < tc.target {
				t.Errorf("%v target %g: SNM %v at VDDC %v, fresh extraction %v", flavor, tc.target, snm, vddc, want)
			}
		}
		if vddc, _, err := c.MinVDDCForReadSNM(b, atVMax, vdd+0.305); err == nil {
			t.Errorf("%v: a target only the off-grid vMax meets returned VDDC %v", flavor, vddc)
		}
	}
}

// TestMinRailSearchGrid pins the grid of minRailSearch on a synthetic
// predicate (v ≥ threshold): an on-grid vMax = vMin + 0.30 has 30 steps and
// its top level is vMax itself, though (0.75 − 0.45)/0.01 truncates to 29;
// an off-grid vMax keeps every level at or below it. Every returned level
// is a probed one, and no probe exceeds vMax.
func TestMinRailSearchGrid(t *testing.T) {
	const vMin = 0.45
	level := func(i int) float64 { return vMin + float64(i)*0.010 }
	for _, tc := range []struct {
		vMax, threshold float64
		want            float64 // 0: the search errors
	}{
		{vMin + 0.30, 0.40, vMin},
		{vMin + 0.30, level(17) - 1e-9, level(17)},
		{vMin + 0.30, level(29) + 1e-9, level(30)},
		{vMin + 0.30, vMin + 0.30, vMin + 0.30},
		{vMin + 0.30, vMin + 0.30 + 1e-9, 0},
		{vMin + 0.305, level(30), level(30)},
		{vMin + 0.305, level(30) + 1e-9, 0},
		{vMin + 0.305, level(3), level(3)},
		{vMin, vMin, vMin},
		{vMin + 0.004, vMin + 0.001, 0},
		{vMin - 0.01, vMin, 0},
	} {
		probed := map[float64]bool{}
		meets := func(v float64) (bool, error) {
			if v > tc.vMax {
				t.Errorf("vMax %v: probed %v", tc.vMax, v)
			}
			probed[v] = true
			return v >= tc.threshold, nil
		}
		got, err := minRailSearch(meets, vMin, tc.vMax, "test")
		if tc.want == 0 {
			if err == nil {
				t.Errorf("vMax %v threshold %v: returned %v, want an error", tc.vMax, tc.threshold, got)
			}
			continue
		}
		if err != nil || got != tc.want || !probed[got] {
			t.Errorf("vMax %v threshold %v: %v (probed %v), %v; want %v", tc.vMax, tc.threshold, got, probed[got], err, tc.want)
		}
	}
}
