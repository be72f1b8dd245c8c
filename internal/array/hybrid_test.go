package array

import (
	"math"
	"reflect"
	"testing"

	"sramco/internal/wire"
)

// altTerms is a deliberately different second flavor for the hybrid tests:
// lower leakage, weaker read current, slower write — the qualitative shape
// of an HVT cell next to the fixture's base terms.
func altTerms() FlavorTerms {
	return FlavorTerms{
		LeakCell:        0.011e-9,
		IRead:           func(vddc, vssc float64) float64 { return 0.6 * paperIRead(vddc, vssc) },
		WriteDelayCell:  func(vwl float64) float64 { return 4.5e-12 * 0.55 / vwl },
		WriteEnergyCell: 4e-18,
	}
}

// hybridDesign stamps the hybrid fields onto the shared design fixture.
func hybridDesign(nr, nc, npre, nwr int, vddc, vssc, vwl float64, groups int, mask uint32) Design {
	d := design(nr, nc, npre, nwr, vddc, vssc, vwl)
	d.Groups = groups
	d.GroupMask = mask
	return d
}

// TestHybridUniformMaskBitIdentity is the bit-identity anchor of the hybrid
// model: a hybrid evaluation whose mask assigns every group the same flavor
// must reproduce the corresponding single-flavor evaluation exactly — the
// all-clear mask matches the base technology and the all-set mask matches a
// technology whose cell terms are the alternate flavor's. Only the Design
// stamp (Groups/GroupMask) may differ.
func TestHybridUniformMaskBitIdentity(t *testing.T) {
	tech := testTech(t)
	alt := altTerms()
	for _, groups := range []int{2, 4, 8} {
		d := hybridDesign(256, 128, 8, 2, 0.55, -0.1, 0.55, groups, 0)
		hyb, err := EvaluateHybrid(tech, d, act, alt)
		if err != nil {
			t.Fatalf("groups=%d mask=0: %v", groups, err)
		}
		plain, err := EvaluateHybrid(tech, design(256, 128, 8, 2, 0.55, -0.1, 0.55), act, FlavorTerms{})
		if err != nil {
			t.Fatal(err)
		}
		hyb.Design = plain.Design
		if !reflect.DeepEqual(hyb, plain) {
			t.Errorf("groups=%d mask=0 diverges from the base-flavor evaluation:\nhybrid %+v\nplain  %+v",
				groups, hyb, plain)
		}

		full := uint32(1)<<groups - 1
		d = hybridDesign(256, 128, 8, 2, 0.55, -0.1, 0.55, groups, full)
		hyb, err = EvaluateHybrid(tech, d, act, alt)
		if err != nil {
			t.Fatalf("groups=%d mask=%#x: %v", groups, full, err)
		}
		altTech := *tech
		altTech.FlavorTerms = alt
		ref, err := EvaluateHybrid(&altTech, design(256, 128, 8, 2, 0.55, -0.1, 0.55), act, FlavorTerms{})
		if err != nil {
			t.Fatal(err)
		}
		hyb.Design = ref.Design
		if !reflect.DeepEqual(hyb, ref) {
			t.Errorf("groups=%d mask=%#x diverges from the alt-flavor evaluation:\nhybrid %+v\nalt    %+v",
				groups, full, hyb, ref)
		}
	}
}

// TestHybridMixedMaskBounds pins the qualitative physics of a mixed mask:
// with a leakier base and a low-leak/slow alternate, any mixed assignment
// must land between the two pure evaluations on leakage energy, and its
// read delay must be at least the pure-base read delay (the alternate's
// weaker read current can only slow the worst bitline down).
func TestHybridMixedMaskBounds(t *testing.T) {
	tech := testTech(t)
	alt := altTerms()
	base, err := EvaluateHybrid(tech, hybridDesign(256, 128, 8, 2, 0.55, -0.1, 0.55, 4, 0), act, alt)
	if err != nil {
		t.Fatal(err)
	}
	all, err := EvaluateHybrid(tech, hybridDesign(256, 128, 8, 2, 0.55, -0.1, 0.55, 4, 0xF), act, alt)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint32(1); mask < 0xF; mask++ {
		mixed, err := EvaluateHybrid(tech, hybridDesign(256, 128, 8, 2, 0.55, -0.1, 0.55, 4, mask), act, alt)
		if err != nil {
			t.Fatalf("mask=%#x: %v", mask, err)
		}
		lo, hi := all.ELeak, base.ELeak
		if lo > hi {
			lo, hi = hi, lo
		}
		if mixed.ELeak < lo || mixed.ELeak > hi {
			t.Errorf("mask=%#x: ELeak %g outside pure range [%g, %g]", mask, mixed.ELeak, lo, hi)
		}
		if mixed.Parts.DBLRead < base.Parts.DBLRead {
			t.Errorf("mask=%#x: DBLRead %g faster than the pure base %g",
				mask, mixed.Parts.DBLRead, base.Parts.DBLRead)
		}
		if mixed.Parts.DBLRead > all.Parts.DBLRead+1e-18 && mixed.Parts.DBLRead > base.Parts.DBLRead+1e-18 {
			// The worst group delay is bounded by the slower pure case.
			worst := math.Max(base.Parts.DBLRead, all.Parts.DBLRead)
			if mixed.Parts.DBLRead > worst {
				t.Errorf("mask=%#x: DBLRead %g above both pure cases (worst %g)",
					mask, mixed.Parts.DBLRead, worst)
			}
		}
	}
}

// TestHybridRejectsBadConfigs pins the validation surface of the hybrid
// design fields.
func TestHybridRejectsBadConfigs(t *testing.T) {
	tech := testTech(t)
	alt := altTerms()
	for _, tc := range []struct {
		name   string
		groups int
		mask   uint32
		nr     int
	}{
		{"groups not power of two", 3, 0, 256},
		{"groups=1 (core canonicalizes, array rejects)", 1, 0, 256},
		{"groups above MaxGroups", 16, 0, 256},
		{"negative-equivalent mask overflow", 2, 4, 256},
		{"rows not divisible by groups", 8, 0, 68},
	} {
		d := hybridDesign(tc.nr, 128, 8, 2, 0.55, -0.1, 0.55, tc.groups, tc.mask)
		// Keep NR=68 structurally valid for the geometry layer by rounding
		// to a divisible-by-4 (but not by-8) row count.
		if _, err := EvaluateHybrid(tech, d, act, alt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := EvaluateHybrid(tech, hybridDesign(256, 128, 8, 2, 0.55, -0.1, 0.55, 2, 1),
		act, FlavorTerms{}); err == nil {
		t.Error("empty alternate flavor terms accepted")
	}
}

// TestBoundRectDominatesHybridMux extends the bound-soundness property to
// the new dimensions: over hybrid chunks with mixed masks and column
// muxing, BoundRect's certificate must lower-bound every point of the
// rectangle on all five bounded metrics.
func TestBoundRectDominatesHybridMux(t *testing.T) {
	tech := testTech(t)
	alt := altTerms()
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mux    int
		groups int
		mask   uint32
	}{
		{0, 0, 0},
		{4, 0, 0},
		{0, 4, 0x5},
		{2, 8, 0x7F},
	} {
		g := wire.Geometry{NR: 256, NC: 128, W: 64, Npre: 1, Nwr: 1, WLSegs: 2, Mux: tc.mux}
		if tc.groups > 0 {
			err = ev.PrepareHybrid(g, 0.55, -0.1, 0.55, Hybrid{Groups: tc.groups, Mask: tc.mask, Alt: alt})
		} else {
			err = ev.Prepare(g, 0.55, -0.1, 0.55)
		}
		if err != nil {
			t.Fatalf("mux=%d groups=%d: %v", tc.mux, tc.groups, err)
		}
		const npreHi, nwrHi = 16, 4
		b, err := ev.BoundRect(1, npreHi, 1, nwrHi)
		if err != nil {
			t.Fatalf("mux=%d groups=%d BoundRect: %v", tc.mux, tc.groups, err)
		}
		var r Result
		for npre := 1; npre <= npreHi; npre++ {
			for nwr := 1; nwr <= nwrHi; nwr++ {
				if err := ev.EvalInto(npre, nwr, &r); err != nil {
					t.Fatalf("mux=%d groups=%d EvalInto(%d,%d): %v", tc.mux, tc.groups, npre, nwr, err)
				}
				if b.DArray > r.DArray || b.EArray > r.EArray || b.EDP > r.EDP ||
					b.Area > r.Area || b.PADP > r.PADP {
					t.Errorf("mux=%d groups=%d mask=%#x (npre=%d nwr=%d): bound exceeds point:\nbound %+v\npoint DArray=%g EArray=%g EDP=%g Area=%g PADP=%g",
						tc.mux, tc.groups, tc.mask, npre, nwr, b, r.DArray, r.EArray, r.EDP, r.Area, r.PADP)
				}
			}
		}
	}
}

// TestMuxDegenerateBitIdentity pins the mux no-op contract: Mux = 0 and the
// canonical degenerate encodings evaluate bit-identically to a geometry
// without the field, and a real mux ratio strictly changes the evaluation.
func TestMuxDegenerateBitIdentity(t *testing.T) {
	tech := testTech(t)
	base := design(256, 128, 8, 2, 0.55, -0.1, 0.55)
	plain, err := EvaluateHybrid(tech, base, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	muxed := base
	muxed.Geom.Mux = 4
	r, err := EvaluateHybrid(tech, muxed, act, FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	if r.DArray <= plain.DArray {
		t.Error("mux=4 should slow the array down (select line + shared-column load)")
	}
	if r.Area == plain.Area {
		t.Error("mux=4 should change the layout area (sense amps shared, transmission gates added)")
	}
	if want := wire.Area(muxed.Geom); r.Area != want {
		t.Errorf("muxed Area %g diverges from wire.Area %g", r.Area, want)
	}
	if want := wire.Area(base.Geom); plain.Area != want {
		t.Errorf("unmuxed Area %g diverges from wire.Area %g", plain.Area, want)
	}
	if r.Parts.DMuxSel <= 0 || r.Parts.EMuxSel <= 0 {
		t.Error("mux=4 should produce non-zero select-line delay and energy")
	}
	if plain.Parts.DMuxSel != 0 || plain.Parts.EMuxSel != 0 {
		t.Error("unmuxed evaluation must carry exact-zero mux components")
	}
}
