package exp

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"sramco/internal/core"
	"sramco/internal/device"
)

var (
	fwOnce sync.Once
	fwVal  *core.Framework
	fwErr  error
)

func paperFW(t *testing.T) *core.Framework {
	t.Helper()
	fwOnce.Do(func() { fwVal, fwErr = core.NewFramework(core.TechPaper, core.FrameworkOpts{}) })
	if fwErr != nil {
		t.Fatalf("NewFramework: %v", fwErr)
	}
	return fwVal
}

func TestFig2ShapeMatchesPaper(t *testing.T) {
	rows, err := Fig2([]float64{0.25, 0.35, 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	last := rows[len(rows)-1]
	// At nominal: ~20× leakage gap (Fig. 2(b)).
	if r := last.LeakLVT / last.LeakHVT; r < 15 || r > 25 {
		t.Errorf("leakage ratio at nominal = %.1f, want ≈20", r)
	}
	// Leakage and HSNM decrease as Vdd drops.
	for i := 1; i < len(rows); i++ {
		if rows[i].LeakLVT <= rows[i-1].LeakLVT || rows[i].LeakHVT <= rows[i-1].LeakHVT {
			t.Error("leakage must grow with Vdd")
		}
		if rows[i].HSNMLVT <= rows[i-1].HSNMLVT {
			t.Error("HSNM must grow with Vdd")
		}
	}
}

func TestFig2PaperLVT100mVComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("low-voltage characterization skipped in -short mode")
	}
	// Paper §2: LVT leakage at 100 mV is still ~5× the HVT leakage at
	// 450 mV. Accept 2-12× on our substrate.
	rows, err := Fig2([]float64{0.10, 0.45})
	if err != nil {
		t.Fatal(err)
	}
	ratio := rows[0].LeakLVT / rows[1].LeakHVT
	if ratio < 2 || ratio > 12 {
		t.Errorf("LVT@100mV / HVT@450mV leakage = %.1f, paper: ≈5", ratio)
	}
}

func TestFig3aRatios(t *testing.T) {
	r, err := Fig3a(device.Vdd)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 3(a): RSNM_HVT ≈ 1.9× LVT; I_read,HVT ≈ 0.5× LVT.
	if rr := r.RSNMRatio(); rr < 1.2 || rr > 2.5 {
		t.Errorf("RSNM ratio = %.2f, paper ≈1.9", rr)
	}
	if ir := r.IReadRatio(); ir < 0.3 || ir > 0.7 {
		t.Errorf("I_read ratio = %.2f, paper ≈0.5", ir)
	}
}

func TestFig3cNegativeGndSweepShape(t *testing.T) {
	rows, err := Fig3c(device.HVT, device.Vdd, []float64{0, -0.12, -0.24})
	if err != nil {
		t.Fatal(err)
	}
	// BL delay falls steeply and RSNM rises mildly as VSSC goes negative.
	for i := 1; i < len(rows); i++ {
		if rows[i].BLDelay >= rows[i-1].BLDelay {
			t.Error("BL delay must fall with more negative VSSC")
		}
		if rows[i].RSNM < rows[i-1].RSNM-0.002 {
			t.Error("RSNM should not degrade over this VSSC range")
		}
	}
	if gain := rows[0].BLDelay / rows[len(rows)-1].BLDelay; gain < 2 {
		t.Errorf("BL delay gain at -240 mV = %.2f×, want ≥2× (paper ≈4×)", gain)
	}
}

func TestFig3dUnderdriveTradeoff(t *testing.T) {
	rows, err := Fig3d(device.HVT, device.Vdd, []float64{0.45, 0.35, 0.30})
	if err != nil {
		t.Fatal(err)
	}
	// Lower VWL: higher RSNM, higher BL delay (the rejection reason).
	for i := 1; i < len(rows); i++ {
		if rows[i].RSNM <= rows[i-1].RSNM {
			t.Error("RSNM must rise as WL is underdriven")
		}
		if rows[i].BLDelay <= rows[i-1].BLDelay {
			t.Error("BL delay must rise as WL is underdriven")
		}
	}
}

func TestFig5aOverdriveShape(t *testing.T) {
	rows, err := Fig5a(device.HVT, device.Vdd, []float64{0.45, 0.54, 0.60})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].WM <= rows[i-1].WM {
			t.Error("WM must rise with WL overdrive")
		}
		if rows[i].WriteDelay >= rows[i-1].WriteDelay {
			t.Error("write delay must fall with WL overdrive")
		}
	}
}

func TestFig5bNegativeBLShape(t *testing.T) {
	rows, err := Fig5b(device.HVT, device.Vdd, []float64{0, -0.10})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].WM <= rows[0].WM {
		t.Error("WM must rise with negative BL")
	}
	if rows[1].WriteDelay >= rows[0].WriteDelay {
		t.Error("write delay must fall with negative BL")
	}
}

func TestReadCurrentFitAgainstPaperLaw(t *testing.T) {
	r, err := ReadCurrentFit(device.Vdd)
	if err != nil {
		t.Fatal(err)
	}
	if r.A < 0.9 || r.A > 1.8 {
		t.Errorf("fitted exponent %.2f, paper 1.3", r.A)
	}
	if r.GainNeg240 < 2.5 || r.GainNeg240 > 6 {
		t.Errorf("I_read gain at -240 mV = %.2f×, paper quotes 4.3× (law: 2.65×)", r.GainNeg240)
	}
}

func TestTable4AndFig7(t *testing.T) {
	fw := paperFW(t)
	caps := []int{1024, 8192, 131072} // 128 B, 1 KB, 16 KB for test speed
	rows, err := Table4(context.Background(), fw, caps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(caps)*4 {
		t.Fatalf("got %d rows, want %d", len(rows), len(caps)*4)
	}
	for _, r := range rows {
		if r.NR*r.NC != r.CapacityBits {
			t.Errorf("%s %s: n_r·n_c = %d ≠ %d", r.Config, r.Config, r.NR*r.NC, r.CapacityBits)
		}
		if r.Config.Method == core.M1 && r.VSSC != 0 {
			t.Errorf("M1 row has VSSC = %g", r.VSSC)
		}
		if r.Config.Method == core.M2 && r.Config.Flavor == device.HVT && r.VSSC > -0.05 {
			t.Errorf("HVT-M2 should use negative Gnd, got VSSC = %g", r.VSSC)
		}
		if r.EDP <= 0 || r.Delay <= 0 || r.Energy <= 0 {
			t.Errorf("non-positive metrics in row %+v", r)
		}
	}
	// Fig. 7(d): M2 must cut both BL and total delay of the HVT arrays.
	f7d := Fig7d(rows)
	if len(f7d) != len(caps) {
		t.Fatalf("Fig7d rows = %d", len(f7d))
	}
	for _, r := range f7d {
		if !(r.BLDelayM2 < r.BLDelayM1) {
			t.Errorf("%d bits: M2 BL delay (%g) not below M1 (%g)", r.CapacityBits, r.BLDelayM2, r.BLDelayM1)
		}
		if !(r.TotalM2 < r.TotalM1) {
			t.Errorf("%d bits: M2 total delay not below M1", r.CapacityBits)
		}
	}
	// Headline statistics over the ≥1KB subset.
	h, err := ComputeHeadline(rows)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgEDPReduction < 0.3 {
		t.Errorf("avg EDP reduction %.0f%%, paper 59%%", h.AvgEDPReduction*100)
	}
	if h.EDPReduction16KB < h.AvgEDPReduction-0.35 {
		t.Errorf("16KB reduction (%.0f%%) should be at least near the average", h.EDPReduction16KB*100)
	}
	// Rendering smoke checks.
	for _, tab := range []*Table{Table4Render(rows), Fig7Render(rows), Fig7dRender(f7d)} {
		if !strings.Contains(tab.ASCII(), "16KB") {
			t.Errorf("render missing 16KB row:\n%s", tab.ASCII())
		}
		if lines := strings.Count(tab.CSV(), "\n"); lines < 2 {
			t.Error("CSV render too short")
		}
	}
}

func TestComputeHeadlineErrors(t *testing.T) {
	if _, err := ComputeHeadline(nil); err == nil {
		t.Error("empty rows accepted")
	}
	rows := []Table4Row{{CapacityBits: 8192, Config: Config{device.LVT, core.M2}, EDP: 1, Delay: 1}}
	if _, err := ComputeHeadline(rows); err == nil {
		t.Error("missing HVT row accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "b"}}
	tab.AddRow("x,y", 1.5)
	tab.AddRow("plain", 2)
	ascii := tab.ASCII()
	if !strings.Contains(ascii, "T\n") || !strings.Contains(ascii, "plain") {
		t.Errorf("ASCII:\n%s", ascii)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("CSV quoting failed:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header:\n%s", csv)
	}
}

func TestFig2TableRender(t *testing.T) {
	tab := Fig2Table([]Fig2Row{{Vdd: 0.45, HSNMLVT: 0.22, HSNMHVT: 0.22, LeakLVT: 1.6e-9, LeakHVT: 8e-11}})
	if !strings.Contains(tab.ASCII(), "450") {
		t.Error("Fig2 table missing voltage")
	}
	at := AssistTable("t", "VSSC", []AssistRow{{V: -0.1, RSNM: 0.15, IRead: 1e-5, BLDelay: 5e-11}})
	if !strings.Contains(at.ASCII(), "-100") {
		t.Error("assist table missing knob")
	}
	wt := WriteAssistTable("t", "VWL", []WriteAssistRow{{V: 0.54, WM: 0.18, WriteDelay: 5e-12}})
	if !strings.Contains(wt.ASCII(), "540") {
		t.Error("write assist table missing knob")
	}
}

func TestFig3aRatioHelpers(t *testing.T) {
	r := Fig3aResult{RSNMLVT: 0.1, RSNMHVT: 0.19, IReadLVT: 10e-6, IReadHVT: 5e-6}
	if math.Abs(r.RSNMRatio()-1.9) > 1e-12 || math.Abs(r.IReadRatio()-0.5) > 1e-12 {
		t.Error("ratio helpers")
	}
}
