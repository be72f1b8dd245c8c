package core

import (
	"context"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
)

func TestParetoFrontProperties(t *testing.T) {
	f := paperFramework(t)
	opts := Options{CapacityBits: 8192, Flavor: device.HVT, Method: M2}
	res, err := f.Pareto(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	front := res.Front
	if len(front) < 3 {
		t.Fatalf("frontier has only %d points", len(front))
	}
	// Sorted by delay, strictly decreasing energy (non-domination).
	for i := 1; i < len(front); i++ {
		if front[i].Result.DArray < front[i-1].Result.DArray {
			t.Fatal("frontier not sorted by delay")
		}
		if front[i].Result.EArray >= front[i-1].Result.EArray {
			t.Fatalf("frontier point %d not dominated-free: E %g after %g",
				i, front[i].Result.EArray, front[i-1].Result.EArray)
		}
	}
	// The EDP optimum must lie on (or at least not dominate) the frontier.
	opt, err := f.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	bestEDP := opt.Best.Result.EDP
	onFront := false
	for _, p := range front {
		if p.Result.EDP <= bestEDP*(1+1e-9) {
			onFront = true
			break
		}
	}
	if !onFront {
		t.Error("EDP optimum not represented on the Pareto frontier")
	}
	// Every frontier point is feasible and at the pinned rails.
	for _, p := range front {
		if p.Design.VDDC != 0.550 || p.Design.VWL != 0.540 {
			t.Fatalf("frontier point has wrong rails: %+v", p.Design)
		}
	}
}

func TestParetoFrontM1SubsetDominatedByM2(t *testing.T) {
	f := paperFramework(t)
	r1, err := f.Pareto(context.Background(), Options{CapacityBits: 8192, Flavor: device.HVT, Method: M1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Pareto(context.Background(), Options{CapacityBits: 8192, Flavor: device.HVT, Method: M2})
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := r1.Front, r2.Front
	// M2's search space contains M1's designs with VSSC = 0 — wait: M1 pins
	// VDDC = VWL = max(VDDC*, VWL*) which differs from M2's rails, so the
	// frontiers are not strictly nested. But M2's fastest point must be at
	// least as fast as M1's fastest (negative Gnd only adds speed).
	if m2[0].Result.DArray > m1[0].Result.DArray*(1+1e-9) {
		t.Errorf("M2 min delay (%g) worse than M1 (%g)", m2[0].Result.DArray, m1[0].Result.DArray)
	}
}

func TestKneePoint(t *testing.T) {
	mk := func(d, e float64) DesignPoint {
		return DesignPoint{Result: &array.Result{DArray: d, EArray: e}}
	}
	front := []DesignPoint{mk(1, 10), mk(2, 3), mk(10, 1)}
	if k := KneePoint(front); k != 1 {
		t.Errorf("KneePoint = %d, want 1 (the balanced middle point)", k)
	}
	if k := KneePoint(front[:1]); k != 0 {
		t.Errorf("single-point knee = %d", k)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty frontier should panic")
		}
	}()
	KneePoint(nil)
}

func TestInsertPareto(t *testing.T) {
	mk := func(d, e float64) DesignPoint {
		return DesignPoint{Result: &array.Result{DArray: d, EArray: e}}
	}
	var front []DesignPoint
	front = insertPareto(front, mk(2, 2))
	front = insertPareto(front, mk(1, 3)) // incomparable: stays
	front = insertPareto(front, mk(3, 3)) // dominated by (2,2): dropped
	if len(front) != 2 {
		t.Fatalf("front size %d, want 2", len(front))
	}
	front = insertPareto(front, mk(1, 1)) // dominates everything
	if len(front) != 1 || front[0].Result.DArray != 1 || front[0].Result.EArray != 1 {
		t.Fatalf("front after dominator: %+v", front)
	}
	// Duplicate of an existing point is rejected (treated as dominated).
	front = insertPareto(front, mk(1, 1))
	if len(front) != 1 {
		t.Fatalf("duplicate inflated front to %d", len(front))
	}
}
