package core

import (
	"fmt"
	"math"
	"slices"

	"sramco/internal/array"
	"sramco/internal/device"
)

// maskSpec is one hybrid group-assignment class of a search: the group mask
// plus everything that depends only on which flavors are present — the
// pinned rails and the per-flavor read-stability needs — and the mask with
// its terms, which every prepare of the spec stamps. A global-flavor search
// has exactly one spec, the all-clear mask with the base flavor's rails, so
// the degenerate search walks literally the same (rails, mask) unit the
// pre-hybrid engine did.
type maskSpec struct {
	m         array.Mask // set by maskClasses
	vddc, vwl float64
	mask      uint32
	needBase  bool // base flavor populates at least one group
	needAlt   bool // alternate flavor populates at least one group
}

// otherFlavor returns the hybrid search's alternate flavor.
func otherFlavor(fl device.Flavor) device.Flavor { return fl.Other() }

// altTerms assembles the alternate flavor's cell terms for the evaluator.
func altTerms(cc *CellChar) array.FlavorTerms {
	return array.FlavorTerms{
		LeakCell:        cc.Leak,
		IRead:           cc.IRead,
		WriteDelayCell:  cc.WriteDelay,
		WriteEnergyCell: cc.WriteEnergy,
	}
}

// maskSpecs enumerates the group-assignment classes of a search in
// deterministic mask order (0 … 2^G−1), together with the alternate
// flavor's terms and characterization (nil for a global-flavor search).
//
// Rails per class: a pure mask keeps its own flavor's starred rails exactly
// (so pure-mask hybrid units are bit-compatible with the pure searches); a
// mixed mask must satisfy both flavors' yield stars simultaneously, so each
// shared rail takes the per-rail max (under M1 the single extra rail is the
// max of all four stars, which the per-flavor M1 rails already encode).
func (f *Framework) maskSpecs(opts *Options) ([]maskSpec, array.FlavorTerms, *CellChar, error) {
	vddc, vwl, err := f.Rails(opts.Flavor, opts.Method)
	if err != nil {
		return nil, array.FlavorTerms{}, nil, err
	}
	if !opts.hybridOn() {
		return []maskSpec{{mask: 0, vddc: vddc, vwl: vwl, needBase: true}}, array.FlavorTerms{}, nil, nil
	}
	alt := otherFlavor(opts.Flavor)
	altCC, ok := f.Cells[alt]
	if !ok {
		return nil, array.FlavorTerms{}, nil, fmt.Errorf("core: hybrid alternate flavor %v not characterized", alt)
	}
	altVDDC, altVWL, err := f.Rails(alt, opts.Method)
	if err != nil {
		return nil, array.FlavorTerms{}, nil, err
	}
	mixVDDC, mixVWL := math.Max(vddc, altVDDC), math.Max(vwl, altVWL)
	full := uint32(1)<<uint(opts.HybridGroups) - 1
	specs := make([]maskSpec, 0, full+1)
	for mask := uint32(0); mask <= full; mask++ {
		s := maskSpec{mask: mask, needBase: mask != full, needAlt: mask != 0}
		switch mask {
		case 0:
			s.vddc, s.vwl = vddc, vwl
		case full:
			s.vddc, s.vwl = altVDDC, altVWL
		default:
			s.vddc, s.vwl = mixVDDC, mixVWL
		}
		specs = append(specs, s)
	}
	return specs, altTerms(altCC), altCC, nil
}

// maskClasses derives each spec's mask terms (maskSpec.m), once per search,
// and partitions the specs into mask classes: specs sharing a rail class
// and an array.MaskKey, so their prepared units differ only in the
// GroupMask stamped on each Result (DESIGN.md §13.7). It returns each
// spec's representative — the class's smallest mask, which specs list
// first — and the number of classes. Every unit of a search has the same
// capacity, so one set of terms and one partition serve every chunk. A
// global-flavor search has one class.
func maskClasses(specs []maskSpec, specClass []int, bits, groups int, leakBase, leakAlt float64) ([]uint16, int) {
	type classKey struct {
		mask array.MaskKey
		rail int
	}
	// At most one class per mask: the scratch stays on the stack.
	var keyBuf [1 << array.MaxGroups]classKey
	var firstBuf [1 << array.MaxGroups]uint16
	keys, first := keyBuf[:0], firstBuf[:0]
	rep := make([]uint16, len(specs))
	for i := range specs {
		sp := &specs[i]
		sp.m = array.NewMask(bits, groups, sp.mask, leakBase, leakAlt)
		k := classKey{rail: specClass[i]}
		if groups > 1 {
			k.mask = sp.m.Key()
		}
		j := slices.Index(keys, k)
		if j < 0 {
			j = len(keys)
			keys = append(keys, k)
			first = append(first, uint16(i))
		}
		rep[i] = first[j]
	}
	return rep, len(keys)
}

// HybridAltTerms returns the evaluator cell terms of base's hybrid alternate
// flavor, for evaluating an explicit hybrid design point outside a search.
func (f *Framework) HybridAltTerms(base device.Flavor) (array.FlavorTerms, error) {
	alt := otherFlavor(base)
	altCC, ok := f.Cells[alt]
	if !ok {
		return array.FlavorTerms{}, fmt.Errorf("core: hybrid alternate flavor %v not characterized", alt)
	}
	return altTerms(altCC), nil
}

// specRSNMOK reports whether every flavor present in the class meets the
// read-stability constraint at the VSSC level (each flavor is judged by its
// own characterization, as in the pure searches; altCC may be nil when the
// class never needs it).
func specRSNMOK(s maskSpec, vssc float64, baseCC, altCC *CellChar, delta float64) bool {
	return (!s.needBase || baseCC.readStable(vssc, delta)) && (!s.needAlt || altCC.readStable(vssc, delta))
}

// muxCandidates enumerates the sense-amp sharing ratios searched for one
// access width: the unshared organization first (encoded 0, the
// wire.Geometry zero value, so degenerate designs serialize unchanged),
// then powers of two up to min(MuxMax, width).
func muxCandidates(s SearchSpace, width int) []int {
	out := []int{0}
	for m := 2; m <= s.MuxMax && m <= width; m *= 2 {
		out = append(out, m)
	}
	return out
}
