package core

import (
	"fmt"
	"slices"

	"sramco/internal/array"
)

// pointSearch is the point evaluator of the single-point searchers,
// GreedyOptimize and SensitivityAt: one Evaluator, the method's pinned
// rails, the exhaustive search's own candidate lists (rowCandidates,
// vsscCandidates, segCandidates, muxCandidates and the fin ranges) and the
// skip counts of the points it judged. It judges a point by the exhaustive
// search's rule, in its order (eval), and prepares it as the walker
// prepares a unit: a rail stage, the search's Mask and PrepareStaged.
type pointSearch struct {
	opts      *Options
	cc        *CellChar
	delta     float64
	ev        *array.Evaluator
	vddc, vwl float64 // the method's pinned rails
	rows      []rowCand
	vssc      []float64
	mask      array.Mask // the single global flavor at the search's capacity
	stats     SearchStats
	res       array.Result // eval's Result, overwritten by the next eval

	// The last evaluated point's rail stage and its (VDDC, VSSC, VWL):
	// moves that keep the rails reuse it.
	rails   array.RailStage
	railsAt [3]float64
	railsOK bool
}

// newPointSearch builds the point evaluator for normalized single-flavor
// options.
func (f *Framework) newPointSearch(opts *Options) (pointSearch, error) {
	tech, err := f.ArrayTech(opts.Flavor)
	if err != nil {
		return pointSearch{}, err
	}
	vddc, vwl, err := f.Rails(opts.Flavor, opts.Method)
	if err != nil {
		return pointSearch{}, err
	}
	// Moves along the N_pre and N_wr lists stay in one (geometry, rails)
	// chunk, so the geometry stage memo-hits and each step costs only the
	// mask stamp and the per-point terms; moves that keep the rails reuse
	// their rail stage.
	ev, err := array.NewEvaluator(tech, opts.Activity)
	if err != nil {
		return pointSearch{}, err
	}
	return pointSearch{
		opts: opts, cc: f.Cells[opts.Flavor], delta: f.Delta, ev: ev, vddc: vddc, vwl: vwl,
		rows: rowCandidates(opts.CapacityBits, opts.Space), vssc: vsscCandidates(opts.Method, opts.Space),
		mask: array.NewMask(opts.CapacityBits, 0, 0, tech.LeakCell, 0),
	}, nil
}

// withRows returns d reorganized as rc, with the access width the
// exhaustive search pairs with it.
func (p *pointSearch) withRows(d array.Design, rc rowCand) array.Design {
	d.Geom.NR, d.Geom.NC, d.Geom.W = rc.nr, rc.nc, accessWidth(p.opts.W, rc.nc)
	return d
}

// position returns d's position on the four lists SensitivityAt moves
// along — row organization, VSSC level, N_pre and N_wr — and whether d lies
// in the search space: every one of them on its list, with the access
// width, wordline segmentation and mux ratio the exhaustive search pairs
// with the organization. Rails and row groups are not part of the grid.
// Positions ascend with the values; the VSSC levels run from 0 down, so a
// level's position counts from the deepest.
func (p *pointSearch) position(d array.Design) ([4]int, bool) {
	g := d.Geom
	pos := [4]int{
		slices.IndexFunc(p.rows, func(rc rowCand) bool { return rc.nr == g.NR && rc.nc == g.NC }),
		len(p.vssc) - 1 - slices.Index(p.vssc, d.VSSC),
		g.Npre - 1,
		g.Nwr - 1,
	}
	for k, n := range p.sizes() {
		if pos[k] < 0 || pos[k] >= n {
			return pos, false
		}
	}
	width := accessWidth(p.opts.W, g.NC)
	return pos, g.W == width && slices.Contains(segCandidates(p.opts, g.NC, width), g.Segments()) &&
		(g.MuxRatio() == 1 || slices.Contains(muxCandidates(p.opts.Space, width), g.Mux))
}

// sizes returns the lengths of the four lists position indexes.
func (p *pointSearch) sizes() [4]int {
	return [4]int{len(p.rows), len(p.vssc), p.opts.Space.NpreMax, p.opts.Space.NwrMax}
}

// moveTo returns base moved to position pos of the four lists, keeping its
// rails, wordline segmentation, mux ratio and row groups.
func (p *pointSearch) moveTo(base array.Design, pos [4]int) array.Design {
	d := p.withRows(base, p.rows[pos[0]])
	d.VSSC = p.vssc[len(p.vssc)-1-pos[1]]
	d.Geom.Npre, d.Geom.Nwr = pos[2]+1, pos[3]+1
	return d
}

// eval judges one design point by the exhaustive search's rule, in its
// order: a point outside the search space is not counted; one the cell
// cannot read stably at its VSSC is SkippedRSNM; a geometry Validate
// rejects is SkippedGeom; the model then evaluates it (Evaluated), and its
// error is returned; a point whose rails miss the access cycle is
// SkippedRails. It returns the Result of a feasible point, valid until the
// next eval, and nil otherwise.
func (p *pointSearch) eval(d array.Design) (*array.Result, error) {
	if _, ok := p.position(d); !ok {
		return nil, nil
	}
	if !p.cc.readStable(d.VSSC, p.delta) {
		p.stats.SkippedRSNM++
		return nil, nil
	}
	g := d.Geom
	if g.Validate() != nil {
		p.stats.SkippedGeom++
		return nil, nil
	}
	var err error
	if rails := [3]float64{d.VDDC, d.VSSC, d.VWL}; !p.railsOK || rails != p.railsAt {
		p.rails, err = p.ev.Rails(d.VDDC, d.VSSC, d.VWL, nil)
		p.railsAt, p.railsOK = rails, err == nil
	}
	r := &p.res
	if err == nil {
		err = p.ev.PrepareStaged(g, &p.rails, &p.mask)
	}
	if err == nil {
		err = p.ev.EvalInto(g.Npre, g.Nwr, r)
	}
	if err != nil {
		return nil, fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w", g.NR, g.NC, g.Npre, g.Nwr, d.VSSC, err)
	}
	p.stats.Evaluated++
	if !r.RailsSettleInTime {
		p.stats.SkippedRails++
		return nil, nil
	}
	return r, nil
}
