package array

import (
	"fmt"
	"math/rand"
	"testing"

	"sramco/internal/wire"
)

// TestHybridMaskKeyEquivalence is the contract of Mask.Key: on random
// 8-group chunks (muxed and segmented geometries, random VSSC levels and
// rails, both flavors as base), every mask whose key equals that of the
// smallest mask with its key — its class representative — must prepare a
// chunk whose EvalInto Results equal (==) the representative's apart from
// Design.GroupMask, and whose EvalSweep lanes and BoundRect bounds over
// random rectangles equal the representative's. Every mask of every chunk
// is checked, so a key that merges two masks with different prepared terms
// fails on the first chunk that reads the difference.
func TestHybridMaskKeyEquivalence(t *testing.T) {
	const groups = 8
	rng := rand.New(rand.NewSource(20261018))
	for _, fl := range flavorPairs(t) {
		repEv, err := NewEvaluator(fl.tech, act)
		if err != nil {
			t.Fatal(err)
		}
		ev := repEv.Clone()
		var repSweep, sweep SweepBlock
		var repRes, res Result
		for trial := 0; trial < 24; trial++ {
			g := wire.Geometry{NR: 8 << rng.Intn(8), NC: 1 << rng.Intn(11), Npre: 1, Nwr: 1,
				WLSegs: []int{0, 2, 4, 8}[rng.Intn(4)]}
			g.W = min(g.NC, 16<<rng.Intn(3))
			g.Mux = []int{0, 2, 4, 8}[rng.Intn(4)]
			if (Design{Geom: g, VDDC: 0.55, VWL: 0.55, Groups: groups}).Validate(fl.tech) != nil {
				trial--
				continue
			}
			rails := []float64{0.45, 0.50, 0.55}
			rs, err := repEv.Rails(rails[rng.Intn(3)], -0.01*float64(rng.Intn(25)), rails[rng.Intn(3)], &fl.alt)
			if err != nil {
				t.Fatal(err)
			}

			chunk := fmt.Sprintf("n_r=%d n_c=%d W=%d segs=%d mux=%d VDDC=%g VSSC=%g VWL=%g",
				g.NR, g.NC, g.W, g.WLSegs, g.Mux, rs.vddc, rs.vssc, rs.vwl)
			keys := make([]MaskKey, 0, 1<<groups)
			members := 0
			for mask := uint32(0); mask < 1<<groups; mask++ {
				key := NewMask(g.Bits(), groups, mask, fl.tech.LeakCell, fl.alt.LeakCell).Key()
				rep := uint32(len(keys))
				for i, k := range keys {
					if k == key {
						rep = uint32(i)
						break
					}
				}
				keys = append(keys, key)
				if rep == mask {
					continue
				}
				members++

				// The representative and the member on separate Evaluators
				// prepared from one rail stage.
				repMask := NewMask(g.Bits(), groups, rep, fl.tech.LeakCell, fl.alt.LeakCell)
				if err := repEv.PrepareStaged(g, &rs, &repMask); err != nil {
					t.Fatal(err)
				}
				m := NewMask(g.Bits(), groups, mask, fl.tech.LeakCell, fl.alt.LeakCell)
				if err := ev.PrepareStaged(g, &rs, &m); err != nil {
					t.Fatal(err)
				}
				name := func() string { return fmt.Sprintf("%s masks %#x/%#x", chunk, rep, mask) }
				for k := 0; k < 3; k++ {
					npreLo, nwrLo := 1+rng.Intn(12), 1+rng.Intn(12)
					npreHi, nwrHi := npreLo+rng.Intn(12), nwrLo+rng.Intn(12)
					want, err := repEv.BoundRect(npreLo, npreHi, nwrLo, nwrHi)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ev.BoundRect(npreLo, npreHi, nwrLo, nwrHi)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s: BoundRect over [%d,%d]×[%d,%d] differs:\n  rep    %+v\n  member %+v",
							name(), npreLo, npreHi, nwrLo, nwrHi, want, got)
					}

					if err := repEv.EvalSweep(npreLo, nwrLo, nwrHi, &repSweep); err != nil {
						t.Fatal(err)
					}
					if err := ev.EvalSweep(npreLo, nwrLo, nwrHi, &sweep); err != nil {
						t.Fatal(err)
					}
					for i := range sweep.DArray {
						if sweep.DArray[i] != repSweep.DArray[i] || sweep.EArray[i] != repSweep.EArray[i] ||
							sweep.EDP[i] != repSweep.EDP[i] || sweep.Area[i] != repSweep.Area[i] || sweep.PADP[i] != repSweep.PADP[i] {
							t.Fatalf("%s: EvalSweep lane %d of row N_pre=%d differs", name(), i, npreLo)
						}
					}

					npre, nwr := npreLo+rng.Intn(npreHi-npreLo+1), nwrLo+rng.Intn(nwrHi-nwrLo+1)
					if err := repEv.EvalInto(npre, nwr, &repRes); err != nil {
						t.Fatal(err)
					}
					if err := ev.EvalInto(npre, nwr, &res); err != nil {
						t.Fatal(err)
					}
					if res.Design.GroupMask != mask || repRes.Design.GroupMask != rep {
						t.Fatalf("%s: Results stamped masks %#x/%#x", name(), repRes.Design.GroupMask, res.Design.GroupMask)
					}
					res.Design.GroupMask = rep
					if res != repRes {
						t.Fatalf("%s: EvalInto(%d, %d) differs beyond GroupMask:\n  rep    %+v\n  member %+v",
							name(), npre, nwr, repRes, res)
					}
				}
			}
			// Without a merged pair the test would check nothing.
			if members == 0 {
				t.Fatalf("%s: no two of the %d masks share a key", chunk, 1<<groups)
			}
		}
	}
}
