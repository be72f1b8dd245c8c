package sramco

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestDefaultFrameworkShared(t *testing.T) {
	f1, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("Default() must return a shared framework")
	}
}

func TestOptimizePublicAPI(t *testing.T) {
	fw, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	best, err := fw.Optimize(context.Background(), Options{CapacityBits: 1024 * 8, Flavor: HVT, Method: M2})
	if err != nil {
		t.Fatal(err)
	}
	if best.Best.Design.Geom.Bits() != 8192 {
		t.Errorf("capacity = %d bits", best.Best.Design.Geom.Bits())
	}
	if best.Best.Result.EDP <= 0 {
		t.Error("non-positive EDP")
	}
	if _, err := fw.Optimize(context.Background(), Options{CapacityBits: 0, Flavor: HVT, Method: M2}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := fw.Optimize(context.Background(), Options{CapacityBits: -32, Flavor: HVT, Method: M2}); err == nil {
		t.Error("negative capacity accepted")
	}
	if best.Stats.Evaluated != best.Stats.Evaluated || best.Stats.Chunks < 1 || best.Stats.Workers < 1 {
		t.Errorf("search stats not populated: %+v", best.Stats)
	}
}

func TestOptimizeContextPublicAPI(t *testing.T) {
	fw, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = fw.Optimize(ctx, Options{CapacityBits: 1024 * 8, Flavor: HVT, Method: M2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Optimize error = %v, want context.Canceled", err)
	}
	var serr *SearchError
	if !errors.As(err, &serr) {
		t.Fatalf("error %T does not expose SearchStats", err)
	}
	if _, err := fw.Table4(ctx, []int{8192}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Table4 error = %v, want context.Canceled", err)
	}
	// A live context behaves exactly like the plain call.
	got, err := fw.Optimize(context.Background(), Options{CapacityBits: 8192, Flavor: HVT, Method: M2})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := fw.Optimize(context.Background(), Options{CapacityBits: 1024 * 8, Flavor: HVT, Method: M2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.Design != plain.Best.Design || got.Stats.Evaluated != plain.Stats.Evaluated {
		t.Error("context and plain searches disagree")
	}
}

func TestEvaluateRoundTrip(t *testing.T) {
	fw, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	best, err := fw.Optimize(context.Background(), Options{CapacityBits: 1024 * 8, Flavor: HVT, Method: M2})
	if err != nil {
		t.Fatal(err)
	}
	// Re-evaluating the optimal design must reproduce its metrics.
	r, err := fw.Evaluate(HVT, best.Best.Design, Activity{Alpha: 0.5, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.EDP-best.Best.Result.EDP)/best.Best.Result.EDP > 1e-12 {
		t.Errorf("re-evaluation EDP %g vs %g", r.EDP, best.Best.Result.EDP)
	}
}

func TestRailsPublic(t *testing.T) {
	fw, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	vddc, vwl, err := fw.Rails(HVT, M2)
	if err != nil {
		t.Fatal(err)
	}
	if vddc != 0.550 || vwl != 0.540 {
		t.Errorf("HVT M2 rails = %g/%g", vddc, vwl)
	}
}

func TestCharacterizeCellPublic(t *testing.T) {
	r, err := CharacterizeCell(HVT)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flavor != HVT {
		t.Error("flavor not propagated")
	}
	if r.HSNM <= 0 || r.RSNM <= 0 || r.WM <= 0 || r.Leakage <= 0 || r.ReadI <= 0 || r.WriteDelay <= 0 {
		t.Errorf("non-positive characterization: %+v", r)
	}
	if r.RSNM >= r.HSNM {
		t.Error("RSNM must be below HSNM")
	}
}

func TestDeltaAndCapacities(t *testing.T) {
	if math.Abs(Delta()-0.35*Vdd) > 1e-12 {
		t.Errorf("Delta = %g", Delta())
	}
	caps := PaperCapacities()
	if len(caps) != 5 || caps[0] != 1024 || caps[4] != 131072 {
		t.Errorf("PaperCapacities = %v", caps)
	}
}

func TestMonteCarloYieldPublic(t *testing.T) {
	r, err := MonteCarloYield(context.Background(), MCConfig{Flavor: HVT, N: 3, Seed: 9, Metrics: 1 /* HSNM */}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) != 3 {
		t.Errorf("samples = %d", len(r.Samples))
	}
}

func TestParetoFrontPublic(t *testing.T) {
	fw, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Pareto(context.Background(), Options{CapacityBits: 8192, Flavor: HVT, Method: M2})
	if err != nil {
		t.Fatal(err)
	}
	front := res.Front
	if len(front) < 2 {
		t.Fatalf("frontier size %d", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].Result.EArray >= front[i-1].Result.EArray {
			t.Fatal("frontier not strictly improving in energy")
		}
	}
}

func TestCornerAnalysisPublic(t *testing.T) {
	rows, err := CornerAnalysis(HVT,
		ReadBias{Vdd: Vdd, VDDC: 0.55, VSSC: -0.24, VWL: Vdd},
		WriteBias{Vdd: Vdd, VWL: 0.54})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("corners = %d", len(rows))
	}
}

func TestTemperatureSweepPublic(t *testing.T) {
	rows, err := TemperatureSweep(HVT, ReadBias{Vdd: Vdd, VDDC: Vdd, VSSC: 0, VWL: Vdd}, []float64{300, 398})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Leak <= rows[0].Leak {
		t.Fatalf("temperature sweep rows: %+v", rows)
	}
}

func TestHeadlineStatsPublic(t *testing.T) {
	fw, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := fw.Table4(context.Background(), []int{8192, 131072})
	if err != nil {
		t.Fatal(err)
	}
	h, err := HeadlineStats(rows)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgEDPReduction <= 0 {
		t.Errorf("EDP reduction %g, want positive (paper: 59%%)", h.AvgEDPReduction)
	}
}
