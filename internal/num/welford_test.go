package num

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelfordMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 257)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*0.03 + 0.2
		w.Add(xs[i], 1)
	}
	s := Summarize(xs)
	if math.Abs(w.Mean()-s.Mean) > 1e-12 {
		t.Errorf("mean %g vs %g", w.Mean(), s.Mean)
	}
	if math.Abs(w.Std()-s.Std) > 1e-12 {
		t.Errorf("std %g vs %g", w.Std(), s.Std)
	}
	if w.MinV != s.Min || w.MaxV != s.Max {
		t.Errorf("min/max %g/%g vs %g/%g", w.MinV, w.MaxV, s.Min, s.Max)
	}
	if math.Abs(w.ESS()-float64(len(xs))) > 1e-9 {
		t.Errorf("ESS %g, want %d for unit weights", w.ESS(), len(xs))
	}
}

func TestWelfordWeighted(t *testing.T) {
	// A weight-2 observation must equal two unit observations for the mean
	// (frequency view) while ESS drops below the raw count.
	var a, b Welford
	a.Add(1, 2)
	a.Add(4, 1)
	b.Add(1, 1)
	b.Add(1, 1)
	b.Add(4, 1)
	if math.Abs(a.Mean()-b.Mean()) > 1e-15 {
		t.Errorf("weighted mean %g vs unit-weight %g", a.Mean(), b.Mean())
	}
	if a.ESS() >= 3 {
		t.Errorf("ESS %g should be < 3 under unequal weights", a.ESS())
	}
}

func TestInvNormCDF(t *testing.T) {
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},
		{0.15865525393145707, -1},
		{0.9986501019683699, 3},
		{1.3498980316300933e-03, -3},
		{0.975, 1.959963984540054},
	}
	for _, c := range cases {
		if got := InvNormCDF(c.p); math.Abs(got-c.z) > 1e-9 {
			t.Errorf("InvNormCDF(%g) = %g, want %g", c.p, got, c.z)
		}
	}
	// Round trip across the domain, including the far tails.
	for _, p := range []float64{1e-12, 1e-6, 0.02, 0.3, 0.7, 0.98, 1 - 1e-6} {
		z := InvNormCDF(p)
		back := 0.5 * math.Erfc(-z/math.Sqrt2)
		if math.Abs(back-p) > 1e-12*math.Max(1, p/1e-12) && math.Abs(back-p)/p > 1e-9 {
			t.Errorf("Φ(Φ⁻¹(%g)) = %g", p, back)
		}
	}
	if !math.IsInf(InvNormCDF(0), -1) || !math.IsInf(InvNormCDF(1), 1) {
		t.Error("endpoints must map to ∓Inf")
	}
	if !math.IsNaN(InvNormCDF(-0.1)) || !math.IsNaN(InvNormCDF(1.1)) || !math.IsNaN(InvNormCDF(math.NaN())) {
		t.Error("out-of-domain p must map to NaN")
	}
}

func TestMuMinusKSigmaCI(t *testing.T) {
	var w Welford
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		w.Add(rng.NormFloat64(), 1)
	}
	half := w.MuMinusKSigmaCI(3, 1.96)
	// σ≈1, n=4000: half ≈ 1.96·sqrt(5.5/4000) ≈ 0.0727.
	want := 1.96 * w.Std() * math.Sqrt(5.5/w.ESS())
	if math.Abs(half-want) > 1e-12 {
		t.Errorf("CI half-width %g, want %g", half, want)
	}
	var empty Welford
	if !math.IsInf(empty.MuMinusKSigmaCI(3, 1.96), 1) {
		t.Error("empty accumulator must report an infinite CI")
	}
}

func TestWilsonCI(t *testing.T) {
	lo, hi := WilsonCI(0, 100, 1.96)
	if lo != 0 || hi <= 0 || hi > 0.1 {
		t.Errorf("Wilson at p=0: [%g, %g]", lo, hi)
	}
	lo, hi = WilsonCI(0.5, 100, 1.96)
	if math.Abs((lo+hi)/2-0.5) > 0.01 || hi-lo > 0.25 {
		t.Errorf("Wilson at p=0.5: [%g, %g]", lo, hi)
	}
	if lo, hi = WilsonCI(0.5, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("Wilson with no trials: [%g, %g]", lo, hi)
	}
}
