package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
	"sramco/internal/wire"
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
	mk := func(d, e float64, nwr int) *array.Result {
		return &array.Result{Design: array.Design{Geom: wire.Geometry{Npre: 1, Nwr: nwr}}, DArray: d, EArray: e}
	}
	var f front
	f.insert(mk(2, 2, 1))
	f.insert(mk(1, 3, 1)) // incomparable: stays
	f.insert(mk(3, 3, 1)) // dominated by (2,2): dropped
	if len(f.pts) != 2 {
		t.Fatalf("front size %d, want 2", len(f.pts))
	}
	one := mk(1, 1, 2)
	f.insert(one) // dominates everything
	if len(f.pts) != 1 || f.pts[0].res != one {
		t.Fatalf("front after dominator: %+v", f.pts)
	}
	// An exact tie keeps the canonically smaller design, whatever the order.
	f.insert(mk(1, 1, 3))
	if len(f.pts) != 1 || f.pts[0].res != one {
		t.Fatalf("a tie with a larger design replaced the member: %+v", f.pts)
	}
	smaller := mk(1, 1, 1)
	f.insert(smaller)
	if len(f.pts) != 1 || f.pts[0].res != smaller {
		t.Fatalf("a tie with a smaller design did not replace the member: %+v", f.pts)
	}
}

// insertPareto is the linear-scan front the staircase replaced, kept as the
// oracle: it inserts p into a non-dominated set, dropping p if dominated
// and evicting any points p dominates. Domination is on (DArray, EArray),
// minimizing both; exact metric ties keep the canonically smaller design so
// the front does not depend on insertion order.
func insertPareto(front []DesignPoint, p DesignPoint) []DesignPoint {
	pd, pe := p.Result.DArray, p.Result.EArray
	for i, q := range front {
		qd, qe := q.Result.DArray, q.Result.EArray
		if qd == pd && qe == pe {
			if designLess(p.Design, q.Design) {
				front[i] = p
			}
			return front
		}
		if qd <= pd && qe <= pe {
			// q dominates p: keep the existing front unchanged.
			return front
		}
	}
	keep := front[:0]
	for _, q := range front {
		if !(pd <= q.Result.DArray && pe <= q.Result.EArray) {
			keep = append(keep, q)
		}
	}
	return append(keep, p)
}

// frontDominatesRect reports whether a front member proves every point of a
// rectangle with metric lower bounds (bD, bE) redundant: some q is ≤ the
// bound in both metrics and strictly below in at least one. Strictness in
// one coordinate protects exact metric ties, whose canonical replacement in
// insertPareto must still see the candidate.
func frontDominatesRect(front []DesignPoint, bD, bE float64) bool {
	for i := range front { // by index: a DesignPoint copy per member costs more than the test
		qd, qe := front[i].Result.DArray, front[i].Result.EArray
		if (qd <= bD && qe < bE) || (qd < bD && qe <= bE) {
			return true
		}
	}
	return false
}

// paretoWouldChange mirrors insertPareto's decision for a point with metrics
// (d, e) and design cand without materializing its Result: false when an
// existing member weakly dominates it (and an exact tie would keep the
// canonical incumbent), true when inserting would alter the front.
func paretoWouldChange(front []DesignPoint, d, e float64, cand array.Design) bool {
	for i := range front { // by index, as in frontDominatesRect
		qd, qe := front[i].Result.DArray, front[i].Result.EArray
		if qd == d && qe == e {
			return designLess(cand, front[i].Design)
		}
		if qd <= d && qe <= e {
			return false
		}
	}
	return true
}

// decodeFrontCase turns fuzz bytes into a sequence of front candidates, two
// bytes each, on a small grid: D ∈ 0…7 with E on a band around 7 − D, so
// fronts grow up to eight members long, and one of 16 designs. Equal D,
// equal E and exact (D, E) ties between different designs are all common.
// The sequence stops at 128 candidates.
func decodeFrontCase(data []byte) []DesignPoint {
	var pts []DesignPoint
	for ; len(data) >= 2 && len(pts) < 128; data = data[2:] {
		d := int(data[0] & 7)
		e := 7 - d + int(data[0]>>3&3) - 1
		design := array.Design{Geom: wire.Geometry{Npre: 1 + int(data[1]&3), Nwr: 1 + int(data[1]>>2&3)}}
		pts = append(pts, DesignPoint{
			Design: design,
			Result: &array.Result{Design: design, DArray: float64(d), EArray: float64(e)},
		})
	}
	return pts
}

// frontProbes are the probe coordinates checkFrontMatchesOracle tries in
// each metric: every grid value decodeFrontCase can produce, the midpoints
// around them, and both infinities.
var frontProbes = func() []float64 {
	v := []float64{math.Inf(-1), math.Inf(1)}
	for x := -1.5; x <= 10.5; x += 0.5 {
		v = append(v, x)
	}
	return v
}()

// checkFrontMatchesOracle inserts pts into a staircase front, a lanes-only
// front and the oracle's linear front, and folds them into a worker front
// through unitSweep.foldPareto, as the sweep does, and after every insert
// requires: the staircase holds the oracle's members (the same Results, so
// the same design holds each tie), all of them built; the worker front
// holds the same members by position, none built yet, so its ties compare
// designs stamped from positions; D strictly increases and E strictly
// decreases along it, its lanes match its Results, the lanes-only front's
// and the worker front's; and on every probe (d, e) of the grid — members'
// exact coordinates in one or both metrics among them — the rectangle
// prune test and the would-change decision for three candidate designs
// agree with the oracle's.
func checkFrontMatchesOracle(t *testing.T, pts []DesignPoint) {
	t.Helper()
	cands := []array.Design{
		{Geom: wire.Geometry{Npre: 1, Nwr: 1}},
		{Geom: wire.Geometry{Npre: 2, Nwr: 3}},
		{Geom: wire.Geometry{Npre: 4, Nwr: 4}},
	}
	var f, lanes front
	var oracle []DesignPoint
	// A zero search, chunk and unit stamp the position (N_pre, N_wr) as the
	// design decodeFrontCase builds for it.
	slot := &walkWorker{}
	r := unitSweep{s: &search{specs: make([]maskSpec, 1)}, slot: slot, u: &searchUnit{}}
	for n, p := range pts {
		oracle = insertPareto(oracle, p)
		f.insert(p.Result)
		lanes.add(p.Result.DArray, p.Result.EArray)
		slot.sweep.DArray, slot.sweep.EArray = []float64{p.Result.DArray}, []float64{p.Result.EArray}
		r.foldPareto(0, p.Design.Geom.Npre, p.Design.Geom.Nwr)

		want := slices.Clone(oracle)
		sort.Slice(want, func(i, j int) bool { return want[i].Result.DArray < want[j].Result.DArray })
		got := frontPoints(&f)
		if !slices.Equal(got, want) {
			t.Fatalf("insert %d (%v): front %v, oracle %v", n, describePoint(p), describeFront(got), describeFront(want))
		}
		for i, q := range got {
			if f.pts[i] != (member{res: q.Result}) {
				t.Fatalf("insert %d: member %d %+v is not a built reference to %v", n, i, f.pts[i], describePoint(q))
			}
			g := q.Design.Geom
			if len(slot.front.pts) != len(got) || slot.front.pts[i] != (member{npre: int32(g.Npre), nwr: int32(g.Nwr)}) {
				t.Fatalf("insert %d: worker front %+v does not hold %v by position at %d", n, slot.front.pts, describePoint(q), i)
			}
			if f.d[i] != q.Result.DArray || f.e[i] != q.Result.EArray {
				t.Fatalf("insert %d: lanes (%g, %g) at %d disagree with member %v", n, f.d[i], f.e[i], i, describePoint(q))
			}
			if i > 0 && (f.d[i] <= f.d[i-1] || f.e[i] >= f.e[i-1]) {
				t.Fatalf("insert %d: not a staircase: %v", n, describeFront(got))
			}
		}
		if !slices.Equal(slot.front.d, f.d) || !slices.Equal(slot.front.e, f.e) {
			t.Fatalf("insert %d: worker front D %v E %v, front D %v E %v", n, slot.front.d, slot.front.e, f.d, f.e)
		}
		if !slices.Equal(lanes.d, f.d) || !slices.Equal(lanes.e, f.e) {
			t.Fatalf("insert %d: lanes-only front D %v E %v, front D %v E %v", n, lanes.d, lanes.e, f.d, f.e)
		}
		for _, d := range frontProbes {
			for _, e := range frontProbes {
				if got, want := f.dominatesRect(d, e), frontDominatesRect(oracle, d, e); got != want {
					t.Fatalf("insert %d: dominatesRect(%g, %g) = %v, oracle %v over %v", n, d, e, got, want, describeFront(frontPoints(&f)))
				}
				for _, c := range cands {
					if got, want := frontWouldChange(&f, d, e, c), paretoWouldChange(oracle, d, e, c); got != want {
						t.Fatalf("insert %d: would-change (%g, %g) %d/%d = %v, oracle %v over %v",
							n, d, e, c.Geom.Npre, c.Geom.Nwr, got, want, describeFront(frontPoints(&f)))
					}
				}
			}
		}
	}
}

// frontWouldChange is unitSweep.foldPareto's worker-front decision for a
// point (d, e) with design cand, on a front of built members.
func frontWouldChange(f *front, d, e float64, cand array.Design) bool {
	k, st := f.locate(d, e)
	return st == enters || st == ties && designLess(cand, f.pts[k].res.Design)
}

// frontPoints returns a front's members as design points, each with its
// Result's design.
func frontPoints(f *front) []DesignPoint {
	pts := make([]DesignPoint, len(f.pts))
	for i, m := range f.pts {
		pts[i] = DesignPoint{Result: m.res}
		if m.res != nil {
			pts[i].Design = m.res.Design
		}
	}
	return pts
}

func describePoint(p DesignPoint) string {
	return fmt.Sprintf("(%g, %g) %d/%d", p.Result.DArray, p.Result.EArray, p.Design.Geom.Npre, p.Design.Geom.Nwr)
}

func describeFront(pts []DesignPoint) string {
	s := make([]string, len(pts))
	for i, p := range pts {
		s[i] = describePoint(p)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// TestFrontMatchesOracle checks the staircase front against the linear
// oracle on random insert sequences.
func TestFrontMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for c := 0; c < 100; c++ {
		data := make([]byte, 2*(1+rng.Intn(64)))
		rng.Read(data)
		checkFrontMatchesOracle(t, decodeFrontCase(data))
	}
}

// FuzzFrontMatchesOracle fuzzes the insert sequences of
// TestFrontMatchesOracle, seeded by the corpus under
// testdata/fuzz/FuzzFrontMatchesOracle.
func FuzzFrontMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrontMatchesOracle(t, decodeFrontCase(data))
	})
}
