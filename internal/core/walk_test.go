package core

import (
	"context"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
	"sramco/internal/wire"
)

// slowRailFramework returns a copy of f whose drain capacitances are five
// times the paper technology's. That slows the CVDD and CVSS rails past
// the wordline's half swing on some organizations, so their units cannot
// settle in time, which never happens in the paper technology.
func slowRailFramework(f *Framework) *Framework {
	g := *f
	g.Caps.Cdp *= 5
	g.Caps.Cdn *= 5
	return &g
}

// unitKey names a unit of a chunk: its spec, segmentation and mux ratio.
type unitKey struct {
	spec      uint16
	segs, mux int
}

// oracleLiveUnits classifies every unit of chunk c of s the obvious way,
// in enumeration order, and returns the units the bound pass must record:
// a valid base geometry (with room for the row groups), a mask class that
// meets read stability at the chunk's VSSC, under branch-and-bound the
// class representative, and rails that settle in time, read off the
// per-point model at N_pre = N_wr = 1 (settling does not depend on them).
func oracleLiveUnits(t *testing.T, f *Framework, s *search, c chunk) []unitKey {
	t.Helper()
	tech, err := f.ArrayTech(s.opts.Flavor)
	if err != nil {
		t.Fatal(err)
	}
	_, alt, _, err := f.maskSpecs(s.opts)
	if err != nil {
		t.Fatal(err)
	}
	var live []unitKey
	width := accessWidth(s.opts.W, c.rc.nc)
	for _, segs := range segCandidates(s.opts, c.rc.nc, width) {
		for _, mux := range muxCandidates(s.opts.Space, width) {
			for si, sp := range s.specs {
				d := array.Design{
					Geom: wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: width, Npre: 1, Nwr: 1, WLSegs: segs, Mux: mux},
					VDDC: sp.vddc, VSSC: c.vssc, VWL: sp.vwl, Groups: s.groups, GroupMask: sp.mask,
				}
				if d.Geom.Validate() != nil || s.groups > 1 && c.rc.nr%s.groups != 0 ||
					!specRSNMOK(sp, c.vssc, s.cc, s.altCC, s.delta) || s.prunes && s.rep[si] != uint16(si) {
					continue
				}
				r, err := array.EvaluateHybrid(tech, d, s.opts.Activity, alt)
				if err != nil {
					t.Fatalf("oracle: evaluating %+v: %v", d, err)
				}
				if r.RailsSettleInTime {
					live = append(live, unitKey{uint16(si), segs, mux})
				}
			}
		}
	}
	return live
}

// TestBoundPassRecordsLiveUnits checks the bound pass's record on plain,
// divided-wordline with mux, 4- and 8-group hybrid, read-stability-pruned
// and slow-rail searches under both policies. Each chunk's records must be
// exactly the units oracleLiveUnits finds, in its order and inside the
// chunk's region; the records and the unsettled count must add up to the
// bound pass's prepares; and each kind the pass only counts, times
// N_pre·N_wr, must match oracleSearch's counts. Every kind must be counted
// in some case under each policy that has it: equivalent masks exist only
// under branch-and-bound. Each case also runs checkWalker, so the slow-rail
// case holds both policies' optima, fronts and counts to the oracle on
// units whose rails cannot settle, which TestWalkerMatchesOracle's paper
// technology draws never produce.
func TestBoundPassRecordsLiveUnits(t *testing.T) {
	paper := paperFramework(t)
	space := SearchSpace{VSSCMin: -0.24, VSSCStep: 0.12, NRMax: 1024, NCMax: 1024, NpreMax: 2, NwrMax: 5}
	muxed := space
	muxed.MuxMax = 4
	narrow := space
	narrow.VSSCStep = 0.24
	cases := []struct {
		name string
		f    *Framework
		opts Options
	}{
		{"plain", paper, Options{CapacityBits: 16 << 10, Flavor: device.HVT, Method: M2, Space: space}},
		{"dwl+mux", paper, Options{CapacityBits: 16 << 10, Flavor: device.LVT, Method: M2, W: 16, SearchWLSegs: true, Space: muxed}},
		{"4 groups", paper, Options{CapacityBits: 2048, Flavor: device.LVT, Method: M2, HybridGroups: 4, Space: space}},
		{"8 groups", paper, Options{CapacityBits: 512, Flavor: device.HVT, Method: M2, HybridGroups: 8, Space: narrow}},
		{"rsnm cliff", pruningFramework(t, -0.1), Options{CapacityBits: 2048, Flavor: device.LVT, Method: M2, HybridGroups: 2, Space: space}},
		{"rsnm cliff plain", pruningFramework(t, -0.1), Options{CapacityBits: 2048, Flavor: device.HVT, Method: M2, Space: space}},
		{"slow rails", slowRailFramework(paper), Options{CapacityBits: 2048, Flavor: device.HVT, Method: M2, W: 16, SearchWLSegs: true, Space: space}},
	}
	// seen[policy][kind] counts the cases in which a kind was non-zero.
	kinds := [4]string{"invalid-geometry", "RSNM-infeasible", "equivalent-mask", "unsettled"}
	var seen [2][4]int
	for _, tc := range cases {
		ref := checkWalker(t, tc.f, tc.name, tc.opts)
		pts := tc.opts.Space.NpreMax * tc.opts.Space.NwrMax
		for fi, full := range []bool{false, true} {
			o := tc.opts
			o.disableBounds = full
			s, err := tc.f.newSearch(context.Background(), o, false)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			slots := make([]walkWorker, s.workers)
			for i := range slots {
				slots[i].ev = s.evProto.Clone()
			}
			s.boundPass(slots)
			s.cancel(nil)
			s.span.End()
			name := tc.name + " bounded"
			if full {
				name = tc.name + " full"
			}
			prepared := 0
			for i := range slots {
				prepared += slots[i].prepared
			}
			var sum chunkUnits
			for ci, c := range s.chunks {
				tl := s.tally[ci]
				if int(tl.n) > s.regionCap(c) {
					t.Fatalf("%s chunk %d: %d records overrun the region of %d", name, ci, tl.n, s.regionCap(c))
				}
				want := oracleLiveUnits(t, tc.f, s, c)
				live := s.live(ci)
				ok := len(live) == len(want)
				for i := 0; ok && i < len(live); i++ {
					u := live[i]
					ok = unitKey{u.spec, int(u.segs), int(u.mux)} == want[i]
				}
				if !ok {
					t.Fatalf("%s chunk %d (%dx%d, VSSC %g): records %+v, oracle's live units %+v", name, ci, c.rc.nr, c.rc.nc, c.vssc, live, want)
				}
				sum.n += tl.n
				sum.geom += tl.geom
				sum.rsnm += tl.rsnm
				sum.equiv += tl.equiv
				sum.unsettled += tl.unsettled
			}
			t.Logf("%s: %d records, geom %d, rsnm %d, equiv %d, unsettled %d", name, sum.n, sum.geom, sum.rsnm, sum.equiv, sum.unsettled)
			if int(sum.n+sum.unsettled) != prepared {
				t.Errorf("%s: %d records and %d unsettled units, but the bound pass prepared %d", name, sum.n, sum.unsettled, prepared)
			}
			if got := int(sum.geom) * pts; got != ref.stats.SkippedGeom {
				t.Errorf("%s: geometry count × %d points = %d, oracle SkippedGeom %d", name, pts, got, ref.stats.SkippedGeom)
			}
			if got := int(sum.rsnm)*pts + s.stats.SkippedRSNM; got != ref.stats.SkippedRSNM {
				t.Errorf("%s: read-stability count × %d points + pruned levels' %d = %d, oracle SkippedRSNM %d",
					name, pts, s.stats.SkippedRSNM, got, ref.stats.SkippedRSNM)
			}
			if got := int(sum.n+sum.unsettled+sum.equiv) * pts; got != ref.stats.Evaluated {
				t.Errorf("%s: (records + unsettled + equivalent) × %d points = %d, oracle Evaluated %d", name, pts, got, ref.stats.Evaluated)
			}
			// Under branch-and-bound an unsettled class is counted once, at
			// its representative; its other masks are equivalent.
			if got := int(sum.unsettled) * pts; got > ref.stats.SkippedRails || full && got != ref.stats.SkippedRails {
				t.Errorf("%s: unsettled count × %d points = %d, oracle SkippedRails %d", name, pts, got, ref.stats.SkippedRails)
			}
			if full && sum.equiv != 0 {
				t.Errorf("%s: full enumeration counted %d equivalent units", name, sum.equiv)
			}
			for k, n := range [4]int32{sum.geom, sum.rsnm, sum.equiv, sum.unsettled} {
				if n > 0 {
					seen[fi][k]++
				}
			}
		}
	}
	for fi, policy := range []string{"branch-and-bound", "full enumeration"} {
		for k, n := range seen[fi] {
			if n == 0 && !(fi == 1 && k == 2) { // full enumeration has no equivalent masks
				t.Errorf("%s: no case counts an %s unit", policy, kinds[k])
			}
		}
	}
}
