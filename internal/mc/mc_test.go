package mc

import (
	"context"
	"math"
	"testing"

	"sramco/internal/cell"
	"sramco/internal/device"
	"sramco/internal/num"
)

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Flavor: device.HVT, N: 4, Seed: 42, Metrics: HSNM}
	r1, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Samples {
		if r1.Samples[i].DVt != r2.Samples[i].DVt {
			t.Fatalf("sample %d shifts differ between identical runs", i)
		}
		if r1.Samples[i].HSNM != r2.Samples[i].HSNM {
			t.Fatalf("sample %d HSNM differs between identical runs", i)
		}
	}
	r3, err := Run(context.Background(), Config{Flavor: device.HVT, N: 4, Seed: 43, Metrics: HSNM}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Samples[0].DVt == r3.Samples[0].DVt {
		t.Error("different seeds produced identical shifts")
	}
}

func TestRunComputesRequestedMetricsOnly(t *testing.T) {
	r, err := Run(context.Background(), Config{Flavor: device.HVT, N: 2, Seed: 7, Metrics: RSNM}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Samples {
		if math.IsNaN(s.RSNM) {
			t.Error("requested RSNM missing")
		}
		if !math.IsNaN(s.HSNM) || !math.IsNaN(s.WM) {
			t.Error("unrequested metrics were computed")
		}
	}
	if r.RSNM.N != 2 || r.HSNM.N != 0 {
		t.Errorf("summaries: RSNM.N=%d HSNM.N=%d", r.RSNM.N, r.HSNM.N)
	}
}

func TestVariationSpreadsMargins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sample MC skipped in -short mode")
	}
	r, err := Run(context.Background(), Config{Flavor: device.HVT, N: 12, Seed: 1, Metrics: RSNM}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.RSNM.Std <= 0 {
		t.Error("variation must spread RSNM")
	}
	// The mean should be near the nominal value; variation mostly hurts the
	// minimum (asymmetric shifts shrink one lobe).
	nom, err := cell.New(device.HVT).ReadSNM(cell.NominalRead(device.Vdd))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.RSNM.Mean-nom) > 0.35*nom {
		t.Errorf("MC mean RSNM %g far from nominal %g", r.RSNM.Mean, nom)
	}
	if r.RSNM.Min >= nom {
		t.Error("worst MC sample should fall below the nominal RSNM")
	}
}

func TestMuMinusKSigma(t *testing.T) {
	s := num.Summary{Mean: 0.2, Std: 0.03}
	if got := MuMinusKSigma(s, 3); math.Abs(got-0.11) > 1e-12 {
		t.Errorf("μ-3σ = %g, want 0.11", got)
	}
}

// TestFailFraction folds hand-built samples into the stream accumulator and
// reads the checkpoint's fail fraction: the weighted share of samples whose
// smallest computed margin falls below δ = 0.35·Vdd.
func TestFailFraction(t *testing.T) {
	samples := []Sample{
		{HSNM: 0.20, RSNM: 0.18, WM: math.NaN()},
		{HSNM: 0.10, RSNM: 0.30, WM: math.NaN()},
		{HSNM: 0.25, RSNM: 0.05, WM: math.NaN()},
	}
	for _, c := range []struct {
		vdd, want float64 // δ = 0.35·vdd
	}{
		{0.4, 2.0 / 3.0}, // δ = 0.14: the second and third samples fail
		{0.03, 0},        // δ = 0.0105: none fails
	} {
		a := newStreamAcc(&Config{Vdd: c.vdd, Metrics: HSNM | RSNM})
		for i := range samples {
			a.add(&samples[i])
		}
		if f := a.checkpoint(len(samples), true).FailFraction; math.Abs(f-c.want) > 1e-12 {
			t.Errorf("Vdd %g: FailFraction = %g, want %g", c.vdd, f, c.want)
		}
	}
}

func TestSampleMin(t *testing.T) {
	s := Sample{HSNM: 0.2, RSNM: 0.1, WM: math.NaN()}
	if s.Min() != 0.1 {
		t.Errorf("Min = %g", s.Min())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Flavor: device.HVT, N: 1}, nil); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := Run(context.Background(), Config{Flavor: device.HVT, N: 4, SigmaVt: -0.01}, nil); err == nil {
		t.Error("negative sigma accepted")
	}
}
