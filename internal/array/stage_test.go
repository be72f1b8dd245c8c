package array

import (
	"math/rand"
	"reflect"
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
// exactly one rail; or the group assignment. It retries until the chunk is
// valid for t.
func (c stageCase) mutate(rng *rand.Rand, t *Tech) stageCase {
	for {
		n := c
		switch rng.Intn(4) {
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
		}
		if n.design(1, 1).Validate(t) == nil {
			return n
		}
	}
}

// TestStagedPrepareReuse is the property test of the staged Prepare: one
// Evaluator per base flavor walks a random sequence of chunks, each step
// changing one aspect (see mutate) and preparing through a randomly chosen
// entry — Prepare/PrepareHybrid, or PrepareStaged from a rail stage cached
// across steps. After every step the prepared chunk's EvalInto points,
// EvalSweep lanes and BoundRect must equal (==) a fresh
// Evaluate/EvaluateHybrid and a freshly prepared Evaluator, pinning the
// decoder memo key and rail-stage reuse.
func TestStagedPrepareReuse(t *testing.T) {
	base := testTech(t)
	other := altTerms()
	// Both flavors as base: the fixture tech with the alternate terms, and
	// the same pair swapped.
	swapped := *base
	swapped.LeakCell, swapped.IRead = other.LeakCell, other.IRead
	swapped.WriteDelayCell, swapped.WriteEnergyCell = other.WriteDelayCell, other.WriteEnergyCell
	baseTerms := FlavorTerms{LeakCell: base.LeakCell, IRead: base.IRead,
		WriteDelayCell: base.WriteDelayCell, WriteEnergyCell: base.WriteEnergyCell}

	rng := rand.New(rand.NewSource(13))
	for _, fl := range []struct {
		tech *Tech
		alt  FlavorTerms
	}{{base, other}, {&swapped, baseTerms}} {
		ev, err := NewEvaluator(fl.tech, act)
		if err != nil {
			t.Fatal(err)
		}
		stages := map[[3]float64]*RailStage{}
		c := stageCase{g: wire.Geometry{NR: 128, NC: 128, W: 64, Npre: 1, Nwr: 1},
			vddc: 0.55, vssc: -0.1, vwl: 0.55}
		var sweep SweepBlock
		var r Result
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
				err = ev.PrepareStaged(c.g, rs, c.groups, c.mask)
			} else {
				err = ev.PrepareHybrid(c.g, c.vddc, c.vssc, c.vwl, Hybrid{Groups: c.groups, Mask: c.mask, Alt: fl.alt})
			}
			if err != nil {
				t.Fatalf("step %d %+v: %v", step, c, err)
			}

			fresh, err := NewEvaluator(fl.tech, act)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.PrepareHybrid(c.g, c.vddc, c.vssc, c.vwl, Hybrid{Groups: c.groups, Mask: c.mask, Alt: fl.alt}); err != nil {
				t.Fatal(err)
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
				t.Fatalf("step %d %+v: BoundRect diverges from a fresh Evaluator:\n  got  %+v\n  want %+v", step, c, gotB, wantB)
			}

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
					t.Fatalf("step %d %+v: EvalInto diverges from EvaluateHybrid:\n  got  %+v\n  want %+v", step, d, r, *want)
				}
				if sweep.DArray[i] != want.DArray || sweep.EArray[i] != want.EArray || sweep.EDP[i] != want.EDP ||
					sweep.Area[i] != want.Area || sweep.PADP[i] != want.PADP {
					t.Fatalf("step %d %+v: EvalSweep lane %d diverges from EvaluateHybrid", step, d, i)
				}
			}
		}
	}
}
