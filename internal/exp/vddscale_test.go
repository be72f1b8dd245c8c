package exp

import (
	"context"
	"strings"
	"testing"

	"sramco/internal/device"
)

func TestVddScalingArgument(t *testing.T) {
	if testing.Short() {
		t.Skip("per-Vdd TechSimulated characterization skipped in -short mode")
	}
	// The paper's §1 claim: lowering Vdd on an LVT array is a weaker lever
	// than adopting HVT cells at nominal supply, because leakage dominates
	// large arrays and FinFET DIBL is negligible.
	rows, err := VddScaling(context.Background(), 16*1024*8, []float64{0.35, 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	get := func(vdd float64, f device.Flavor) VddScaleRow {
		for _, r := range rows {
			if r.Vdd == vdd && r.Flavor == f {
				return r
			}
		}
		t.Fatalf("missing row %g %v", vdd, f)
		return VddScaleRow{}
	}
	lvtLow := get(0.35, device.LVT)
	lvtNom := get(0.45, device.LVT)
	hvtNom := get(0.45, device.HVT)

	// Scaling helps the LVT array's energy...
	if !(lvtLow.Energy < lvtNom.Energy) {
		t.Errorf("Vdd scaling should cut LVT energy: %g -> %g", lvtNom.Energy, lvtLow.Energy)
	}
	// ...and cuts its cell leakage...
	if !(lvtLow.LeakCell < lvtNom.LeakCell) {
		t.Errorf("Vdd scaling should cut LVT leakage: %g -> %g", lvtNom.LeakCell, lvtLow.LeakCell)
	}
	// ...but the scaled-LVT leakage stays far above HVT at nominal (paper
	// Fig. 2(b): even LVT@100mV leaks ~5× HVT@450mV)...
	if !(lvtLow.LeakCell > 2*hvtNom.LeakCell) {
		t.Errorf("scaled LVT leakage (%g) should stay well above nominal HVT (%g)", lvtLow.LeakCell, hvtNom.LeakCell)
	}
	// ...and HVT at nominal still wins the energy-delay product.
	if !(hvtNom.EDP < lvtLow.EDP) {
		t.Errorf("HVT@450mV EDP (%g) should beat LVT@350mV (%g)", hvtNom.EDP, lvtLow.EDP)
	}

	tab := VddScaleTable(rows)
	if !strings.Contains(tab.ASCII(), "350") {
		t.Error("table missing the scaled-Vdd row")
	}
}
