package array

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"sramco/internal/device"
	"sramco/internal/periph"
	"sramco/internal/wire"
)

var (
	fixOnce sync.Once
	fixTech *Tech
	fixErr  error
)

// paperIRead is the paper's fitted HVT read-current law (§5):
// I_read = 9.5e-5 · (V_DDC − V_SSC − 0.335)^1.3.
func paperIRead(vddc, vssc float64) float64 {
	return 9.5e-5 * math.Pow(vddc-vssc-0.335, 1.3)
}

func testTech(t testing.TB) *Tech {
	t.Helper()
	fixOnce.Do(func() {
		p, err := periph.Characterize(device.Default7nm(), periph.CharacterizeOpts{})
		if err != nil {
			fixErr = err
			return
		}
		lib := device.Default7nm()
		fixTech = &Tech{
			Periph: p,
			Caps: wire.DeviceCaps{
				Cdn: lib.NLVT.CdFin, Cdp: lib.PLVT.CdFin,
				Cgn: lib.NLVT.CgFin, Cgp: lib.PLVT.CgFin,
			},
			Vdd:     device.Vdd,
			DeltaVS: 0.120,
			FlavorTerms: FlavorTerms{
				LeakCell:        0.082e-9,
				IRead:           paperIRead,
				WriteDelayCell:  func(vwl float64) float64 { return 3e-12 * 0.55 / vwl },
				WriteEnergyCell: 5e-18,
			},
			DCDCFactor: 1.25,
			Accounting: AllColumns,
		}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixTech
}

func design(nr, nc, npre, nwr int, vddc, vssc, vwl float64) Design {
	w := 64
	if nc < w {
		w = nc
	}
	return Design{
		Geom: wire.Geometry{NR: nr, NC: nc, W: w, Npre: npre, Nwr: nwr},
		VDDC: vddc, VSSC: vssc, VWL: vwl,
	}
}

var act = Activity{Alpha: 0.5, Beta: 0.5}

func TestEvaluateBasicInvariants(t *testing.T) {
	tech := testTech(t)
	r, err := EvaluateHybrid(tech, design(128, 64, 12, 2, 0.55, -0.24, 0.55), act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	if r.DRead <= 0 || r.DWrite <= 0 {
		t.Fatalf("non-positive delays: %+v", r)
	}
	if r.DArray != math.Max(r.DRead, r.DWrite) {
		t.Error("Eq.(2) violated: DArray != max(DRead, DWrite)")
	}
	wantESw := act.Beta*r.ESwRead + (1-act.Beta)*r.ESwWrite
	if math.Abs(r.ESw-wantESw) > 1e-24 {
		t.Error("Eq.(3) violated")
	}
	wantLeak := float64(128*64) * tech.LeakCell * r.DArray
	if math.Abs(r.ELeak-wantLeak) > 1e-24 {
		t.Error("Eq.(4) violated")
	}
	wantE := act.Alpha*r.ESw + r.ELeak
	if math.Abs(r.EArray-wantE) > 1e-24 {
		t.Error("Eq.(5) violated")
	}
	if math.Abs(r.EDP-r.EArray*r.DArray) > 1e-36 {
		t.Error("EDP != E·D")
	}
	if !r.RailsSettleInTime {
		t.Error("20-fin rail drivers should settle the rails before WL half-swing")
	}
}

func TestDelayComponentsComposition(t *testing.T) {
	tech := testTech(t)
	r, err := EvaluateHybrid(tech, design(256, 128, 8, 2, 0.55, -0.1, 0.55), act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	b := r.Parts
	readRow := b.DRowDec + b.DRowDrv + b.DWLRead + b.DBLRead
	readCol := b.DColDec + b.DColDrv + b.DCOL
	want := math.Max(readRow, readCol) + b.DSenseAmp + b.DPreRead
	if math.Abs(r.DRead-want) > 1e-18 {
		t.Errorf("Table-3 D_rd composition: %g vs %g", r.DRead, want)
	}
	writeRow := b.DRowDec + b.DRowDrv + b.DWLWrite
	writeCol := b.DColDec + b.DColDrv + b.DCOL + b.DBLWrite
	wantW := math.Max(writeRow, writeCol) + b.DWriteCell + b.DPreWrite
	if math.Abs(r.DWrite-wantW) > 1e-18 {
		t.Errorf("Table-3 D_wr composition: %g vs %g", r.DWrite, wantW)
	}
}

func TestUnmuxedArrayHasNoColumnPath(t *testing.T) {
	tech := testTech(t)
	r, err := EvaluateHybrid(tech, design(128, 64, 8, 2, 0.55, 0, 0.55), act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	b := r.Parts
	if b.DColDec != 0 || b.DColDrv != 0 || b.DCOL != 0 || b.EColDec != 0 || b.ECOL != 0 {
		t.Errorf("column components must vanish when n_c ≤ W: %+v", b)
	}
}

func TestNegativeGndCutsBLDelay(t *testing.T) {
	tech := testTech(t)
	d0 := design(512, 64, 8, 2, 0.55, 0, 0.55)
	d1 := design(512, 64, 8, 2, 0.55, -0.24, 0.55)
	r0, err := EvaluateHybrid(tech, d0, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := EvaluateHybrid(tech, d1, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	if !(r1.Parts.DBLRead < r0.Parts.DBLRead/1.5) {
		t.Errorf("VSSC=-240mV must cut BL delay strongly: %g -> %g", r0.Parts.DBLRead, r1.Parts.DBLRead)
	}
	if !(r1.DRead < r0.DRead) {
		t.Errorf("negative Gnd must cut total read delay: %g -> %g", r0.DRead, r1.DRead)
	}
	// But it costs CVSS switching energy.
	if !(r1.Parts.ECVSS > 0) || r0.Parts.ECVSS != 0 {
		t.Errorf("ECVSS: %g -> %g", r0.Parts.ECVSS, r1.Parts.ECVSS)
	}
}

func TestMorePrechargerFinsTradeoff(t *testing.T) {
	tech := testTech(t)
	small, err := EvaluateHybrid(tech, design(512, 64, 2, 2, 0.55, -0.1, 0.55), act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := EvaluateHybrid(tech, design(512, 64, 30, 2, 0.55, -0.1, 0.55), act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	if !(big.Parts.DPreRead < small.Parts.DPreRead) {
		t.Error("more precharger fins must cut precharge delay")
	}
	if !(big.Parts.DBLRead > small.Parts.DBLRead) {
		t.Error("more precharger fins must raise BL capacitance and delay")
	}
}

func TestLeakageScalesWithBits(t *testing.T) {
	tech := testTech(t)
	r1, err := EvaluateHybrid(tech, design(128, 64, 8, 2, 0.55, 0, 0.55), act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EvaluateHybrid(tech, design(512, 256, 8, 2, 0.55, 0, 0.55), act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	// 16× the bits: leakage per cycle must grow by more than 16× (delay
	// also grows), never less.
	if !(r2.ELeak > 16*r1.ELeak) {
		t.Errorf("leakage energy scaling: %g -> %g", r1.ELeak, r2.ELeak)
	}
}

func TestWorstCasePathBelowAllColumns(t *testing.T) {
	tech := testTech(t)
	d := design(256, 256, 8, 2, 0.55, -0.1, 0.55)
	all, err := EvaluateHybrid(tech, d, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	wcTech := *tech
	wcTech.Accounting = WorstCasePath
	wc, err := EvaluateHybrid(&wcTech, d, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	if !(wc.ESw < all.ESw) {
		t.Errorf("worst-case-path energy (%g) must be below all-columns (%g)", wc.ESw, all.ESw)
	}
	if wc.DArray != all.DArray {
		t.Error("accounting must not change delays")
	}
}

func TestValidationErrors(t *testing.T) {
	tech := testTech(t)
	good := design(128, 64, 8, 2, 0.55, -0.1, 0.55)
	cases := []struct {
		name   string
		mutate func(*Design)
	}{
		{"VDDC below Vdd", func(d *Design) { d.VDDC = 0.40 }},
		{"positive VSSC", func(d *Design) { d.VSSC = 0.05 }},
		{"VWL below Vdd", func(d *Design) { d.VWL = 0.40 }},
		{"bad geometry", func(d *Design) { d.Geom.NR = 3 }},
		// Evaluate has no alternate flavor terms to give a hybrid design.
		{"hybrid design, uniform base mask", func(d *Design) { d.Groups = 2 }},
		{"hybrid design, mixed mask", func(d *Design) { d.Groups, d.GroupMask = 4, 0x5 }},
	}
	for _, c := range cases {
		d := good
		c.mutate(&d)
		if _, err := EvaluateHybrid(tech, d, act, FlavorTerms{}); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := EvaluateHybrid(tech, good, Activity{Alpha: 2, Beta: 0.5}, FlavorTerms{}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	badTech := *tech
	badTech.IRead = nil
	if _, err := EvaluateHybrid(&badTech, good, act, FlavorTerms{}); err == nil {
		t.Error("nil IRead accepted")
	}
	badTech2 := *tech
	badTech2.DCDCFactor = 0.5
	if _, err := EvaluateHybrid(&badTech2, good, act, FlavorTerms{}); err == nil {
		t.Error("DC-DC factor < 1 accepted")
	}
	zeroI := *tech
	zeroI.IRead = func(a, b float64) float64 { return 0 }
	if _, err := EvaluateHybrid(&zeroI, good, act, FlavorTerms{}); err == nil {
		t.Error("zero read current accepted")
	}
	for _, tc := range []struct {
		field string
		set   func(*Tech)
	}{
		{"Vdd", func(t *Tech) { t.Vdd = math.NaN() }},
		{"DeltaVS", func(t *Tech) { t.DeltaVS = math.NaN() }},
		{"LeakCell", func(t *Tech) { t.LeakCell = math.NaN() }},
		{"DCDCFactor", func(t *Tech) { t.DCDCFactor = math.NaN() }},
	} {
		nan := *tech
		tc.set(&nan)
		if _, err := EvaluateHybrid(&nan, good, act, FlavorTerms{}); err == nil {
			t.Errorf("Tech.%s = NaN accepted", tc.field)
		}
	}
	alt := altTerms()
	alt.LeakCell = math.NaN()
	if _, err := EvaluateHybrid(tech, hybridDesign(256, 128, 8, 2, 0.55, -0.1, 0.55, 2, 1), act, alt); err == nil {
		t.Error("FlavorTerms.LeakCell = NaN accepted")
	}
}

// TestEDPPositivity is a property test over the whole search region: every
// valid design point must produce finite positive delay, energy and EDP.
func TestEDPPositivity(t *testing.T) {
	tech := testTech(t)
	prop := func(e1, e2, pre, wr, vs uint8) bool {
		nr := 2 << (e1 % 10) // 2..1024
		nc := 1 << (e2 % 11) // 1..1024
		if nc < 1 {
			return true
		}
		npre := 1 + int(pre%50)
		nwr := 1 + int(wr%20)
		vssc := -0.01 * float64(vs%25)
		d := design(nr, nc, npre, nwr, 0.55, vssc, 0.55)
		if d.Geom.Validate() != nil {
			return true // outside the structural space
		}
		r, err := EvaluateHybrid(tech, d, act, FlavorTerms{})
		if err != nil {
			return false
		}
		return r.EDP > 0 && !math.IsInf(r.EDP, 0) && !math.IsNaN(r.EDP) &&
			r.DArray > 0 && r.EArray > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAccountingString(t *testing.T) {
	if AllColumns.String() != "all-columns" || WorstCasePath.String() != "worst-case-path" {
		t.Error("EnergyAccounting.String mismatch")
	}
}

func TestDividedWordlineCutsDisturbEnergy(t *testing.T) {
	tech := testTech(t) // AllColumns accounting fixture
	flat := design(256, 512, 8, 2, 0.55, -0.1, 0.55)
	dwl := flat
	dwl.Geom.WLSegs = 8
	rFlat, err := EvaluateHybrid(tech, flat, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	rDWL, err := EvaluateHybrid(tech, dwl, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	// Only n_c/8 columns are disturbed: read switching energy must drop
	// substantially under all-columns accounting.
	if !(rDWL.ESwRead < 0.6*rFlat.ESwRead) {
		t.Errorf("DWL read energy %g not well below flat %g", rDWL.ESwRead, rFlat.ESwRead)
	}
	// The breakdown must expose the global/local split.
	if rDWL.Parts.DWLGlobal <= 0 || rDWL.Parts.DWLLocal <= 0 {
		t.Error("DWL breakdown missing global/local delays")
	}
	if rFlat.Parts.DWLGlobal != 0 {
		t.Error("flat design should not report a global WL delay")
	}
	// Total WL delay includes both legs plus the AND stage.
	if rDWL.Parts.DWLRead <= rDWL.Parts.DWLGlobal+rDWL.Parts.DWLLocal-1e-18 {
		t.Error("DWL read delay should include the AND stage")
	}
}

func TestDividedWordlineWorstCaseAccounting(t *testing.T) {
	wcTech := *testTech(t)
	wcTech.Accounting = WorstCasePath
	flat := design(256, 512, 8, 2, 0.55, -0.1, 0.55)
	dwl := flat
	dwl.Geom.WLSegs = 4
	rFlat, err := EvaluateHybrid(&wcTech, flat, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	rDWL, err := EvaluateHybrid(&wcTech, dwl, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	// Under worst-case-path accounting the BL terms don't scale with
	// segments; only the WL wire itself changes. Both must stay positive
	// and finite.
	if rDWL.EDP <= 0 || rFlat.EDP <= 0 {
		t.Fatal("non-positive EDP")
	}
}
