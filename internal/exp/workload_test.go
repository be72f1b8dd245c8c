package exp

import (
	"context"
	"strings"
	"testing"
)

func TestWorkloadSweep(t *testing.T) {
	fw := paperFW(t)
	rows, err := WorkloadSweep(context.Background(), fw, 16*1024*8, []float64{0.1, 1.0}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	byAlpha := map[float64]WorkloadRow{}
	for _, r := range rows {
		byAlpha[r.Alpha] = r
		if r.EDPLVT <= 0 || r.EDPHVT <= 0 {
			t.Fatalf("non-positive EDP in %+v", r)
		}
	}
	// At 16 KB the HVT array must win at every activity level...
	for a, r := range byAlpha {
		if r.HVTGain() <= 0 {
			t.Errorf("α=%g: HVT gain %.0f%%, expected positive at 16 KB", a, r.HVTGain()*100)
		}
	}
	// ...and the gain must grow as the array idles more (leakage-dominated
	// regime is where low-IOFF cells pay off).
	if !(byAlpha[0.1].HVTGain() > byAlpha[1.0].HVTGain()) {
		t.Errorf("idle gain (%.0f%%) should exceed busy gain (%.0f%%)",
			byAlpha[0.1].HVTGain()*100, byAlpha[1.0].HVTGain()*100)
	}
	tab := WorkloadTable(rows)
	if !strings.Contains(tab.ASCII(), "HVT gain") {
		t.Error("workload table render")
	}
}
