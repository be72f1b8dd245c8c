package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {1, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestClosedLoopSendsInOrder(t *testing.T) {
	reqs := make([]request, 20)
	var order []int
	do := func(i int, _ *request) outcome {
		order = append(order, i)
		return outcome{status: 200}
	}
	outs, _ := closedLoop(reqs, 1, do)
	for i, got := range order {
		if got != i || outs[i].latency() < 0 {
			t.Fatalf("closed loop sent %v", order)
		}
	}
}
