package core

import (
	"context"
	"math"
	"testing"

	"sramco/internal/device"
)

func TestOptimizeBankedSingleBankMatchesPlain(t *testing.T) {
	f := paperFramework(t)
	opts := Options{CapacityBits: 32768, Flavor: device.HVT, Method: M2}
	plain, err := f.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	banked, err := f.OptimizeBanked(context.Background(), opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if banked.Banks != 1 {
		t.Fatalf("maxBanks=1 chose %d banks", banked.Banks)
	}
	if banked.BankDecDelay != 0 || banked.WireDelay != 0 || banked.WireEnergy != 0 {
		t.Error("single bank must have no global path")
	}
	if math.Abs(banked.DArray-plain.Best.Result.DArray) > 1e-18 {
		t.Errorf("single-bank delay %g vs plain %g", banked.DArray, plain.Best.Result.DArray)
	}
	if math.Abs(banked.EDP-plain.Best.Result.EDP)/plain.Best.Result.EDP > 1e-9 {
		t.Errorf("single-bank EDP %g vs plain %g", banked.EDP, plain.Best.Result.EDP)
	}
}

func TestOptimizeBankedLargeCapacity(t *testing.T) {
	f := paperFramework(t)
	opts := Options{CapacityBits: 64 * 1024 * 8, Flavor: device.HVT, Method: M2}
	best, err := f.OptimizeBanked(context.Background(), opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if best.Banks < 1 || best.Banks > 8 {
		t.Fatalf("banks = %d", best.Banks)
	}
	if best.Banks*best.PerBank.Design.Geom.Bits() != opts.CapacityBits {
		t.Errorf("capacity mismatch: %d banks × %d bits", best.Banks, best.PerBank.Design.Geom.Bits())
	}
	// Composition invariant.
	want := best.BankDecDelay + best.WireDelay + best.PerBank.Result.DArray
	if math.Abs(best.DArray-want) > 1e-18 {
		t.Error("banked delay composition violated")
	}
	if best.EDP <= 0 || math.IsNaN(best.EDP) {
		t.Fatalf("EDP = %g", best.EDP)
	}
	// The chosen point must be the best of the sweep.
	sweep, err := f.BankSweep(context.Background(), opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) < 2 {
		t.Fatalf("sweep has %d entries", len(sweep))
	}
	for _, s := range sweep {
		if s.EDP < best.EDP*(1-1e-9) {
			t.Errorf("sweep point with %d banks beats the chosen optimum", s.Banks)
		}
		if s.Banks > 1 && (s.WireDelay <= 0 || s.WireEnergy <= 0) {
			t.Errorf("%d banks: missing global path costs", s.Banks)
		}
	}
}

func TestOptimizeBankedValidation(t *testing.T) {
	f := paperFramework(t)
	if _, err := f.OptimizeBanked(context.Background(), Options{CapacityBits: 32768, Flavor: device.HVT}, 0); err == nil {
		t.Error("maxBanks=0 accepted")
	}
}
