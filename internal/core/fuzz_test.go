package core

import (
	"math"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
)

// FuzzOptionsNormalize drives Options.normalize with arbitrary field values.
// Every search entry point funnels through normalize, so the contract is:
// never panic, and on success the options the searchers read are in their
// valid domains (power-of-two capacity, in-range activity, usable width,
// one of the five objectives, the zero value EDP, populated search space).
func FuzzOptionsNormalize(f *testing.F) {
	f.Add(8192, uint8(0), uint8(0), 0.0, 0.0, 0, false, uint8(0))     // all defaults
	f.Add(128*1024, uint8(1), uint8(1), 0.5, 0.9, 64, true, uint8(4)) // typical explicit run
	f.Add(2, uint8(0), uint8(0), 0.0, 0.0, 0, false, uint8(0))        // below minimum capacity
	f.Add(-8192, uint8(0), uint8(0), 0.0, 0.0, 0, false, uint8(0))    // negative capacity
	f.Add(8192+1, uint8(0), uint8(0), 0.0, 0.0, 0, false, uint8(0))   // not a power of two
	f.Add(8192, uint8(0), uint8(0), 2.0, 0.5, 0, false, uint8(0))     // activity out of range
	f.Add(8192, uint8(0), uint8(0), math.NaN(), 0.5, 0, false, uint8(0))
	f.Add(8192, uint8(0), uint8(0), 0.5, math.Inf(1), 0, false, uint8(0))
	f.Add(8192, uint8(0), uint8(0), 0.5, 0.5, -8, false, uint8(0)) // negative width
	f.Add(16, uint8(0), uint8(0), 0.5, 0.5, 0, false, uint8(0))    // default width exceeds capacity
	f.Add(8192, uint8(7), uint8(9), 0.5, 0.5, 32, true, uint8(5))  // out-of-range enums

	r := &array.Result{EDP: 1, DArray: 2, EArray: 3, Area: 4, PADP: 5}
	f.Fuzz(func(t *testing.T, capacity int, flavor, method uint8, alpha, beta float64, w int, segs bool, obj uint8) {
		o := Options{
			CapacityBits: capacity,
			Flavor:       device.Flavor(flavor),
			Method:       Method(method),
			Activity:     array.Activity{Alpha: alpha, Beta: beta},
			W:            w,
			SearchWLSegs: segs,
			Objective:    Objective(obj),
		}
		err := o.normalize()
		if err == nil && Objective(obj) > ObjectivePADP {
			t.Errorf("normalize accepted objective %d, past ObjectivePADP", obj)
		}
		if err != nil {
			return // rejection is fine; panicking or accepting junk is not
		}
		if o.CapacityBits < 4 || o.CapacityBits&(o.CapacityBits-1) != 0 {
			t.Errorf("normalize accepted capacity %d", o.CapacityBits)
		}
		if err := o.Activity.Validate(); err != nil {
			t.Errorf("normalize accepted activity: %v", err)
		}
		if o.W <= 0 || o.W > o.CapacityBits {
			t.Errorf("normalize accepted W = %d for capacity %d", o.W, o.CapacityBits)
		}
		if o.Objective != Objective(obj) {
			t.Errorf("normalize changed objective %d to %d", obj, o.Objective)
		}
		if obj == 0 && o.Objective.Of(r) != r.EDP {
			t.Errorf("the zero objective reads %g, not EDP", o.Objective.Of(r))
		}
		if o.Space == (SearchSpace{}) {
			t.Error("normalize left Space empty")
		}
	})
}
