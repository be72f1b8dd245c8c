package num

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLinear1DExactAtKnots(t *testing.T) {
	xs := []float64{0, 1, 2, 4}
	ys := []float64{1, 3, 2, 8}
	li, err := NewLinear(xs, ys)
	if err != nil {
		t.Fatalf("NewLinear: %v", err)
	}
	for i := range xs {
		if got := li.Eval(xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Fatalf("Eval(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
	if got := li.Eval(0.5); math.Abs(got-2) > 1e-12 {
		t.Fatalf("midpoint = %g, want 2", got)
	}
	// Linear extrapolation beyond the hull.
	if got := li.Eval(5); math.Abs(got-11) > 1e-12 {
		t.Fatalf("extrapolated = %g, want 11", got)
	}
}

func TestPCHIPExactAtKnots(t *testing.T) {
	xs := []float64{0, 0.5, 1.2, 2, 3}
	ys := []float64{0, 1, 0.8, 2, 5}
	p, err := NewPCHIP(xs, ys)
	if err != nil {
		t.Fatalf("NewPCHIP: %v", err)
	}
	for i := range xs {
		if got := p.Eval(xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Fatalf("Eval(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
}

func TestPCHIPClampsOutsideDomain(t *testing.T) {
	p, err := NewPCHIP([]float64{0, 1, 2}, []float64{5, 7, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(-3); got != 5 {
		t.Fatalf("left clamp = %g, want 5", got)
	}
	if got := p.Eval(9); got != 6 {
		t.Fatalf("right clamp = %g, want 6", got)
	}
}

func TestPCHIPTwoPoints(t *testing.T) {
	p, err := NewPCHIP([]float64{0, 2}, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Eval(1) = %g, want 2", got)
	}
}

// TestPCHIPMonotonePreserving: for monotone data, the interpolant must stay
// within [min(y), max(y)] and be monotone — the property that makes PCHIP
// the right choice for characterized current/delay tables.
func TestPCHIPMonotonePreserving(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x, y := 0.0, 0.0
		for i := 0; i < n; i++ {
			x += 0.1 + rng.Float64()
			y += rng.Float64() // nondecreasing
			xs[i], ys[i] = x, y
		}
		p, err := NewPCHIP(xs, ys)
		if err != nil {
			return false
		}
		prev := math.Inf(-1)
		for _, xe := range Linspace(xs[0], xs[n-1], 200) {
			v := p.Eval(xe)
			if v < ys[0]-1e-9 || v > ys[n-1]+1e-9 {
				return false
			}
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInterpTableValidation(t *testing.T) {
	if _, err := NewLinear([]float64{0, 1}, []float64{1}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := NewLinear([]float64{0}, []float64{1}); err == nil {
		t.Fatal("expected too-few-points error")
	}
	if _, err := NewLinear([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected non-increasing error")
	}
	if _, err := NewLinear([]float64{0, 1}, []float64{math.Inf(1), 2}); err == nil {
		t.Fatal("expected Inf rejection")
	}
	if _, err := NewPCHIP([]float64{0, 1}, []float64{1, math.NaN()}); err == nil {
		t.Fatal("expected NaN rejection")
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Fatalf("Linspace[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatal("Linspace not sorted")
	}
}

func TestDomain(t *testing.T) {
	p, _ := NewPCHIP([]float64{2, 3, 4}, []float64{0, 1, 2})
	lo, hi := p.Domain()
	if lo != 2 || hi != 4 {
		t.Fatalf("Domain = (%g, %g)", lo, hi)
	}
}
