package num

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("Mean = %g", s.Mean)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if math.Abs(s.Std-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("Std = %g", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %g/%g", s.Min, s.Max)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Fatalf("Median = %g", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Mean != 3.5 || s.Std != 0 || s.Median != 3.5 {
		t.Fatalf("bad single-sample summary: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}
