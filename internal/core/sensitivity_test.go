package core

import (
	"context"
	"math"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
)

// TestSensitivityAllocs pins SensitivityAt's allocations on a 4 KB HVT
// optimum at 5 per call: it prepares every neighbor from a rail stage and
// a Mask held in its point evaluator and evaluates it into the evaluator's
// scratch Result, so only the per-call set-up allocates.
func TestSensitivityAllocs(t *testing.T) {
	f := paperFramework(t)
	opts := Options{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: M2}
	opt, err := f.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err = f.SensitivityAt(opts, opt.Best); err != nil {
			t.Fatal(err)
		}
	})
	if n > 5 {
		t.Errorf("SensitivityAt allocates %v times per call, want ≤ 5", n)
	}
}

// TestSensitivityCertifiesLocalOptimality: every finite neighbor of the
// exhaustive optimum must have a relative objective ≥ 1 — the strongest
// direct check that the search really found a (local, hence with exhaustive
// enumeration global) minimum.
func TestSensitivityCertifiesLocalOptimality(t *testing.T) {
	f := paperFramework(t)
	for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
		opts := Options{CapacityBits: 32768, Flavor: flavor, Method: M2}
		opt, err := f.Optimize(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		sens, err := f.SensitivityAt(opts, opt.Best)
		if err != nil {
			t.Fatal(err)
		}
		if len(sens) != 4 {
			t.Fatalf("got %d sensitivity rows", len(sens))
		}
		for _, s := range sens {
			for dir, rel := range map[string]float64{"down": s.DownRel, "up": s.UpRel} {
				if math.IsNaN(rel) {
					continue // boundary or infeasible neighbor
				}
				if rel < 1-1e-9 {
					t.Errorf("%v %s %s neighbor beats the optimum: rel=%.6f", flavor, s.Variable, dir, rel)
				}
			}
		}
	}
}

func TestSensitivityM1FreezesVSSC(t *testing.T) {
	f := paperFramework(t)
	opts := Options{CapacityBits: 8192, Flavor: device.HVT, Method: M1}
	opt, err := f.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := f.SensitivityAt(opts, opt.Best)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sens {
		if s.Variable == "V_SSC" {
			if !math.IsNaN(s.DownRel) || !math.IsNaN(s.UpRel) {
				t.Errorf("M1 VSSC sensitivity should be NaN, got %g/%g", s.DownRel, s.UpRel)
			}
		}
	}
}

func TestSensitivityDetectsNonOptimum(t *testing.T) {
	f := paperFramework(t)
	opts := Options{CapacityBits: 8192, Flavor: device.HVT, Method: M2}
	opt, err := f.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the optimum: freeze N_pre at 1 and re-evaluate. Moving N_pre
	// up from this deliberately bad point must improve the objective.
	d := opt.Best.Design
	d.Geom.Npre = 1
	tech, err := f.ArrayTech(device.HVT)
	if err != nil {
		t.Fatal(err)
	}
	r, err := array.EvaluateHybrid(tech, d, array.Activity{Alpha: DefaultAlpha, Beta: DefaultBeta}, array.FlavorTerms{})
	if err != nil {
		t.Fatal(err)
	}
	sens, err := f.SensitivityAt(opts, DesignPoint{Design: d, Result: r})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sens {
		if s.Variable == "N_pre" {
			if !(s.UpRel < 1) {
				t.Errorf("N_pre up from a starved design should improve: rel=%g", s.UpRel)
			}
		}
	}
}
