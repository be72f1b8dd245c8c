package core

import (
	"fmt"
	"math"
)

// Sensitivity reports how the objective responds to a unit move of one
// search variable away from a design point: the neighbor objectives
// relative to the point's own. Values are NaN when the neighbor falls
// outside the search space or is infeasible.
//
// At a true optimum every finite entry is ≥ 1 — SensitivityAt therefore
// doubles as a local-optimality certificate for the exhaustive search, and
// as a design-insight table ("which knob is the design most sensitive to").
type Sensitivity struct {
	Variable string  // "n_r", "V_SSC", "N_pre", "N_wr"
	DownRel  float64 // objective(neighbor with smaller value) / objective(point)
	UpRel    float64 // objective(neighbor with larger value) / objective(point)
}

// SensitivityAt evaluates the four search variables' neighbors around a
// design point under the given options (objective, activity, space). A
// neighbor lies one position along the exhaustive search's candidate list
// of its variable and keeps the point's rails, wordline segmentation and
// mux ratio; it is judged by the searches' rule (pointSearch.eval). A point
// off the search grid is an error, and so is a neighbor's model error,
// returned as a *SearchError.
func (f *Framework) SensitivityAt(opts Options, at DesignPoint) ([]Sensitivity, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.hybridOn() || at.Design.Groups != 0 {
		// The neighborhood evaluator prepares a single-flavor chunk; a hybrid
		// point would silently evaluate under the wrong cell model.
		return nil, fmt.Errorf("core: sensitivity analysis does not support hybrid designs")
	}
	base := opts.Objective.Of(at.Result)
	if base <= 0 {
		return nil, fmt.Errorf("core: non-positive base objective %g", base)
	}
	p, err := f.newPointSearch(&opts)
	if err != nil {
		return nil, err
	}
	pos, ok := p.position(at.Design)
	if !ok {
		return nil, fmt.Errorf("core: sensitivity point %+v is off the search grid", at.Design)
	}
	sizes := p.sizes()
	out := []Sensitivity{{Variable: "n_r"}, {Variable: "V_SSC"}, {Variable: "N_pre"}, {Variable: "N_wr"}}
	// V_SSC moves last: every other move keeps the point's rails, whose rail
	// stage the Evaluator then reuses.
	for _, k := range [...]int{0, 2, 3, 1} {
		rel := [2]float64{math.NaN(), math.NaN()}
		for j, q := range [2]int{pos[k] - 1, pos[k] + 1} {
			if q < 0 || q >= sizes[k] {
				continue
			}
			moved := pos
			moved[k] = q
			r, err := p.eval(p.moveTo(at.Design, moved))
			if err != nil {
				return nil, &SearchError{Stats: p.stats, Cause: err}
			}
			if r != nil {
				rel[j] = opts.Objective.Of(r) / base
			}
		}
		out[k].DownRel, out[k].UpRel = rel[0], rel[1]
	}
	return out, nil
}
