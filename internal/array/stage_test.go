package array

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sramco/internal/wire"
)

// hybridBLDelayAllGroups is the reference form of hybridBLDelay: the max of
// the read bitline delay over every row group. The evaluator divides only
// for the far group and the farthest lower group of each flavor; this
// oracle divides for all of them.
func hybridBLDelayAllGroups(e *Evaluator, cBL float64) float64 {
	last := e.hGroups - 1
	d := cBL * e.deltaVS / e.hIRead[last]
	for gi := 0; gi < last; gi++ {
		ce := (cBL - e.blFixed) + e.hBLFix[gi]
		if dg := ce * e.deltaVS / e.hIRead[gi]; dg > d {
			d = dg
		}
	}
	return d
}

// TestHybridBLDelayMatchesAllGroupsOracle pins the three-group hybrid
// bitline delay to the all-groups oracle at the == level, over random masks
// for G ∈ {2, 4, 8}, random bitline capacitances on random organizations,
// and alternate read currents equal to, weaker than and stronger than the
// base flavor's.
func TestHybridBLDelayMatchesAllGroupsOracle(t *testing.T) {
	tech := testTech(t)
	rng := rand.New(rand.NewSource(20261017))
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{1, 0.6, 1.7} {
		alt := altTerms()
		alt.IRead = func(vddc, vssc float64) float64 { return scale * paperIRead(vddc, vssc) }
		for _, groups := range []int{2, 4, 8} {
			for trial := 0; trial < 40; trial++ {
				mask := uint32(rng.Intn(1 << groups))
				g := wire.Geometry{NR: 16 << rng.Intn(7), NC: 128, W: 64, Npre: 1, Nwr: 1}
				h := Hybrid{Groups: groups, Mask: mask, Alt: alt}
				if err := ev.PrepareHybrid(g, 0.55, -0.01*float64(rng.Intn(25)), 0.55, h); err != nil {
					t.Fatalf("G=%d mask=%#x: %v", groups, mask, err)
				}
				for k := 0; k < 200; k++ {
					// Mostly realistic bitlines (C_BL ≥ blFixed), plus values
					// on both sides of it and far above it.
					cBL := ev.blFixed * (0.5 + 4*rng.Float64())
					if k%10 == 0 {
						cBL = ev.blFixed * (1 + 1e3*rng.Float64())
					}
					if got, want := ev.hybridBLDelay(cBL), hybridBLDelayAllGroups(ev, cBL); got != want {
						t.Fatalf("scale=%g G=%d mask=%#x n_r=%d cBL=%g: three-group %g != all-groups %g",
							scale, groups, mask, g.NR, cBL, got, want)
					}
				}
			}
		}
	}
}

// stageCase is one state of the stage-reuse walk: a chunk in the Design
// encoding plus the rails.
type stageCase struct {
	g               wire.Geometry
	vddc, vssc, vwl float64
	groups          int
	mask            uint32
}

func (c stageCase) design(npre, nwr int) Design {
	g := c.g
	g.Npre, g.Nwr = npre, nwr
	return Design{Geom: g, VDDC: c.vddc, VSSC: c.vssc, VWL: c.vwl, Groups: c.groups, GroupMask: c.mask}
}

// mutate moves the walk one step, changing exactly one aspect of the chunk:
// segs or mux at fixed (n_r, n_c, W); (n_r, n_c, W) at fixed segs and mux;
// exactly one rail; the group assignment; or the mask alone at fixed
// groups, a prepare the geometry memo answers (a repeated chunk when the
// chunk has no groups). It retries until the chunk is valid for t.
func (c stageCase) mutate(rng *rand.Rand, t *Tech) stageCase {
	for {
		n := c
		switch rng.Intn(5) {
		case 0:
			if rng.Intn(2) == 0 {
				n.g.WLSegs = []int{0, 2, 4}[rng.Intn(3)]
			} else {
				n.g.Mux = []int{0, 2, 4}[rng.Intn(3)]
			}
		case 1:
			n.g.NR = 64 << rng.Intn(4)
			n.g.NC = 64 << rng.Intn(4)
			n.g.W = 16 << rng.Intn(3)
		case 2:
			switch rng.Intn(3) {
			case 0:
				n.vddc = []float64{0.45, 0.50, 0.55}[rng.Intn(3)]
			case 1:
				n.vssc = -0.01 * float64(rng.Intn(25))
			case 2:
				n.vwl = []float64{0.45, 0.50, 0.55}[rng.Intn(3)]
			}
		case 3:
			n.groups = []int{0, 2, 4, 8}[rng.Intn(4)]
			n.mask = 0
			if n.groups > 0 {
				n.mask = uint32(rng.Intn(1 << n.groups))
			}
		case 4:
			if n.groups > 0 {
				n.mask = uint32(rng.Intn(1 << n.groups))
			}
		}
		if n.design(1, 1).Validate(t) == nil {
			return n
		}
	}
}

// flavorPairs returns the (base tech, alternate terms) pairs the staged
// prepare and mask key tests run on: the fixture tech with the alternate
// terms, and the same pair swapped, so each flavor is the base once.
func flavorPairs(t *testing.T) []flavorPair {
	base := testTech(t)
	other := altTerms()
	swapped := *base
	swapped.FlavorTerms = other
	return []flavorPair{{base, other}, {&swapped, base.FlavorTerms}}
}

type flavorPair struct {
	tech *Tech
	alt  FlavorTerms
}

// mask returns c's group assignment for PrepareStaged.
func (fl flavorPair) mask(c stageCase) *Mask {
	m := NewMask(c.g.Bits(), c.groups, c.mask, fl.tech.LeakCell, fl.alt.LeakCell)
	return &m
}

// checkFresh holds ev, just prepared for c, to a fresh Evaluator prepared
// for c through PrepareHybrid and to EvaluateHybrid, at ==: BoundRect over a
// random rectangle, Row.Bound of its rows over its N_wr range, the EvalSweep
// lanes of its low row and EvalInto at each of their points.
func checkFresh(t *testing.T, name string, ev *Evaluator, fl flavorPair, c stageCase, rng *rand.Rand) {
	t.Helper()
	fresh, err := NewEvaluator(fl.tech, act)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.PrepareHybrid(c.g, c.vddc, c.vssc, c.vwl, Hybrid{Groups: c.groups, Mask: c.mask, Alt: fl.alt}); err != nil {
		t.Fatalf("%s %+v: fresh PrepareHybrid: %v", name, c, err)
	}
	npreLo, nwrLo := 1+rng.Intn(30), 1+rng.Intn(10)
	npreHi, nwrHi := npreLo+rng.Intn(20), nwrLo+rng.Intn(10)
	gotB, err := ev.BoundRect(npreLo, npreHi, nwrLo, nwrHi)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := fresh.BoundRect(npreLo, npreHi, nwrLo, nwrHi)
	if err != nil {
		t.Fatal(err)
	}
	if gotB != wantB {
		t.Fatalf("%s %+v: BoundRect diverges from a fresh Evaluator:\n  got  %+v\n  want %+v", name, c, gotB, wantB)
	}
	for npre := npreLo; npre <= npreHi; npre++ {
		got, want := ev.Row(npre), fresh.Row(npre)
		gd, ge := got.Bound(nwrLo, nwrHi)
		wd, we := want.Bound(nwrLo, nwrHi)
		if gd != wd || ge != we || got.Area(nwrLo) != want.Area(nwrLo) {
			t.Fatalf("%s %+v: Row(%d).Bound(%d, %d) diverges from a fresh Evaluator: got (%g, %g), want (%g, %g)",
				name, c, npre, nwrLo, nwrHi, gd, ge, wd, we)
		}
	}

	var sweep SweepBlock
	var r Result
	if err := ev.EvalSweep(npreLo, nwrLo, nwrHi, &sweep); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= nwrHi-nwrLo; i++ {
		d := c.design(npreLo, nwrLo+i)
		want, err := EvaluateHybrid(fl.tech, d, act, fl.alt)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.EvalInto(d.Geom.Npre, d.Geom.Nwr, &r); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*want, r) {
			t.Fatalf("%s %+v: EvalInto diverges from EvaluateHybrid:\n  got  %+v\n  want %+v", name, d, r, *want)
		}
		if sweep.DArray[i] != want.DArray || sweep.EArray[i] != want.EArray || sweep.EDP[i] != want.EDP ||
			sweep.Area[i] != want.Area || sweep.PADP[i] != want.PADP {
			t.Fatalf("%s %+v: EvalSweep lane %d diverges from EvaluateHybrid", name, d, i)
		}
	}
}

// TestStagedPrepareReuse is the property test of the staged Prepare and its
// geometry memo. One Evaluator per base flavor walks a random sequence of
// chunks, each step changing one aspect (see mutate) and preparing through a
// randomly chosen entry — Prepare/PrepareHybrid, or PrepareStaged from a
// rail stage cached across steps. It then walks the class representatives
// of an 8-group mask partition in order on several (chunk, segmentation,
// mux) pairs, as the search's bound pass prepares them from one rail stage
// per rail class, and takes the error paths of a memo hit, each followed by
// a valid sibling. After every prepare the chunk's points, sweep lanes,
// BoundRect and Row bounds must equal (==) a fresh Evaluator's and
// EvaluateHybrid's (checkFresh), pinning the memo keys and the mask stamp.
func TestStagedPrepareReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, fl := range flavorPairs(t) {
		ev, err := NewEvaluator(fl.tech, act)
		if err != nil {
			t.Fatal(err)
		}
		stages := map[[3]float64]*RailStage{}
		c := stageCase{g: wire.Geometry{NR: 128, NC: 128, W: 64, Npre: 1, Nwr: 1},
			vddc: 0.55, vssc: -0.1, vwl: 0.55}
		for step := 0; step < 400; step++ {
			c = c.mutate(rng, fl.tech)
			if rng.Intn(2) == 0 {
				key := [3]float64{c.vddc, c.vssc, c.vwl}
				rs := stages[key]
				if rs == nil {
					st, err := ev.Rails(c.vddc, c.vssc, c.vwl, &fl.alt)
					if err != nil {
						t.Fatalf("step %d Rails: %v", step, err)
					}
					rs = &st
					stages[key] = rs
				}
				err = ev.PrepareStaged(c.g, rs, fl.mask(c))
			} else {
				err = ev.PrepareHybrid(c.g, c.vddc, c.vssc, c.vwl, Hybrid{Groups: c.groups, Mask: c.mask, Alt: fl.alt})
			}
			if err != nil {
				t.Fatalf("step %d %+v: %v", step, c, err)
			}
			checkFresh(t, fmt.Sprintf("step %d", step), ev, fl, c, rng)
		}
	}

	// The bound pass's order: per (chunk, segmentation, mux) pair the
	// masks in enumeration order, preparing each class representative from
	// its rail class's stage — pure base, mixed, pure alternate, each
	// flavor's rails as a search pins them (the mixed class takes the
	// per-rail max) — so a pair's mixed representatives are memo hits.
	const groups = 8
	railsOf := func(mask uint32) (vddc, vwl float64, class int) {
		switch mask {
		case 0:
			return 0.50, 0.55, 0
		case 1<<groups - 1:
			return 0.55, 0.50, 2
		}
		return 0.55, 0.55, 1
	}
	for _, fl := range flavorPairs(t) {
		ev, err := NewEvaluator(fl.tech, act)
		if err != nil {
			t.Fatal(err)
		}
		stages := map[[3]float64]*RailStage{}
		for _, rc := range [][2]int{{256, 128}, {1024, 128}} {
			type classKey struct {
				mask  MaskKey
				class int
			}
			var keys []classKey
			var reps []uint32
			for mask := uint32(0); mask < 1<<groups; mask++ {
				_, _, class := railsOf(mask)
				k := classKey{NewMask(rc[0]*rc[1], groups, mask, fl.tech.LeakCell, fl.alt.LeakCell).Key(), class}
				if !slices.Contains(keys, k) {
					keys = append(keys, k)
					reps = append(reps, mask)
				}
			}
			if len(reps) < 1<<groups/4 {
				t.Fatalf("n_r=%d n_c=%d: only %d mask classes", rc[0], rc[1], len(reps))
			}
			for _, vssc := range []float64{-0.05, -0.2} {
				for _, segs := range []int{0, 2} {
					for _, mux := range []int{0, 4} {
						for _, mask := range reps {
							vddc, vwl, _ := railsOf(mask)
							c := stageCase{g: wire.Geometry{NR: rc[0], NC: rc[1], W: 64, Npre: 1, Nwr: 1, WLSegs: segs, Mux: mux},
								vddc: vddc, vssc: vssc, vwl: vwl, groups: groups, mask: mask}
							key := [3]float64{vddc, vssc, vwl}
							rs := stages[key]
							if rs == nil {
								st, err := ev.Rails(vddc, vssc, vwl, &fl.alt)
								if err != nil {
									t.Fatal(err)
								}
								rs = &st
								stages[key] = rs
							}
							if err := ev.PrepareStaged(c.g, rs, fl.mask(c)); err != nil {
								t.Fatalf("%+v: %v", c, err)
							}
							checkFresh(t, "representative walk", ev, fl, c, rng)
						}
					}
				}
			}
		}
	}

	// The error paths of a memo hit: each failing prepare is on the key of
	// the prepare before it, must leave the Evaluator unprepared, and is
	// followed by a valid sibling on the same key.
	fl := flavorPairs(t)[0]
	ev, err := NewEvaluator(fl.tech, act)
	if err != nil {
		t.Fatal(err)
	}
	c := stageCase{g: wire.Geometry{NR: 256, NC: 128, W: 64, Npre: 1, Nwr: 1, WLSegs: 2, Mux: 2},
		vddc: 0.55, vssc: -0.1, vwl: 0.55, groups: groups}
	rs, err := ev.Rails(c.vddc, c.vssc, c.vwl, &fl.alt)
	if err != nil {
		t.Fatal(err)
	}
	noAlt, err := ev.Rails(c.vddc, c.vssc, c.vwl, nil)
	if err != nil {
		t.Fatal(err)
	}
	badFl := fl
	badFl.alt.IRead = func(vddc, vssc float64) float64 { return 0 }
	badRS, err := ev.Rails(c.vddc, c.vssc, c.vwl, &badFl.alt)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEvaluator(flavorPairs(t)[1].tech, act)
	if err != nil {
		t.Fatal(err)
	}
	otherRS, err := other.Rails(c.vddc, c.vssc, c.vwl, &fl.alt)
	if err != nil {
		t.Fatal(err)
	}
	sibling := func(name string, ev *Evaluator, fl flavorPair, rs *RailStage, mask uint32) {
		t.Helper()
		c := c
		c.mask = mask
		if err := ev.PrepareStaged(c.g, rs, fl.mask(c)); err != nil {
			t.Fatalf("%s: sibling %#x: %v", name, mask, err)
		}
		checkFresh(t, name, ev, fl, c, rng)
	}
	fails := func(name string, rs *RailStage, m *Mask, want string) {
		t.Helper()
		err := ev.PrepareStaged(c.g, rs, m)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: PrepareStaged returned %v, want an error containing %q", name, err, want)
		}
		var r Result
		if err := ev.EvalInto(1, 1, &r); err == nil {
			t.Fatalf("%s: EvalInto succeeded after a failed prepare", name)
		}
	}
	sibling("first", ev, fl, &rs, 0x5a)
	fails("mask beyond the groups", &rs, fl.mask(stageCase{g: c.g, groups: groups, mask: 1 << groups}), "bits beyond")
	sibling("after a mask beyond the groups", ev, fl, &rs, 0x3c)
	fails("no alternate terms", &noAlt, fl.mask(stageCase{g: c.g, groups: groups, mask: 0x11}), "alternate flavor terms")
	sibling("after no alternate terms", ev, fl, &rs, 0x11)
	fails("another technology", &otherRS, fl.mask(stageCase{g: c.g, groups: groups, mask: 0x11}), "different technology")
	sibling("after another technology", ev, fl, &rs, 0x22)
	fails("non-positive alternate read current", &badRS, badFl.mask(stageCase{g: c.g, groups: groups, mask: 0x81}), "non-positive read current")
	sibling("after a non-positive read current", ev, badFl, &badRS, 0)
	sibling("good stage after a non-positive read current", ev, fl, &rs, 0x81)
	cl := ev.Clone()
	sibling("clone", cl, fl, &rs, 0xf0)
	sibling("original after its clone", ev, fl, &rs, 0x0f)

	// A global-flavor memo hit keeps the mask check too.
	g0 := c
	g0.groups, g0.mask = 0, 0
	rs0, err := ev.Rails(c.vddc, c.vssc, c.vwl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.PrepareStaged(g0.g, &rs0, fl.mask(g0)); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "global flavor", ev, fl, g0, rng)
	fails("mask without groups", &rs0, fl.mask(stageCase{g: c.g, mask: 1}), "requires Groups")
	if err := ev.Prepare(g0.g, g0.vddc, g0.vssc, g0.vwl); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "Prepare after a mask without groups", ev, fl, g0, rng)
}
