package num

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve factors a with Refactor and solves a·x = b with SolveInto: the
// path the Newton kernel takes.
func solve(a *Matrix, b []float64) ([]float64, error) {
	f := NewLU(a.Rows)
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.SolveInto(x, b)
	return x, nil
}

func TestSolveLinearKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := solve(a, []float64{5, 10})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("got x=%v, want [1 3]", x)
	}
}

func TestSolveLinearIdentity(t *testing.T) {
	n := 5
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		b[i] = float64(i) - 2.5
	}
	x, err := solve(a, b)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Fatalf("identity solve mismatch at %d: %g vs %g", i, x[i], b[i])
		}
	}
}

func TestFactorSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if err := NewLU(2).Refactor(a); err == nil {
		t.Fatal("expected ErrSingular for rank-1 matrix")
	}
	z := NewMatrix(3, 3)
	if err := NewLU(3).Refactor(z); err == nil {
		t.Fatal("expected ErrSingular for zero matrix")
	}
}

func TestFactorNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if err := NewLU(2).Refactor(a); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestPivotingHandlesZeroDiagonal(t *testing.T) {
	// Leading zero forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := solve(a, []float64{2, 3})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("got %v, want [3 2]", x)
	}
}

// TestSolveRandomResidual is a property test: for random well-conditioned
// systems, A·x must reproduce b to near machine precision.
func TestSolveRandomResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			// Diagonal dominance keeps the system well conditioned.
			a.Add(i, i, float64(n)*2)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solve(a, b)
		if err != nil {
			return false
		}
		r := make([]float64, n)
		for i := range r {
			for j := range x {
				r[i] += a.At(i, j) * x[j]
			}
			r[i] -= b[i]
		}
		return NormInf(r) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveIntoDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewLU(2).SolveInto(make([]float64, 2), []float64{1})
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if NormInf(v) != 4 {
		t.Fatalf("NormInf = %g", NormInf(v))
	}
	if NormInf(nil) != 0 {
		t.Fatal("norm of empty vector should be 0")
	}
}
