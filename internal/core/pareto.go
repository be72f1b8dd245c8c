package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"sramco/internal/array"
)

// ParetoResult pairs the energy-delay frontier with the search statistics of
// the sweep that produced it, mirroring Optimum for the scalarized search.
type ParetoResult struct {
	Front []DesignPoint
	Stats SearchStats
}

// Pareto exhaustively enumerates the same search space as Optimize —
// including divided-wordline segmentation, mux ratios and group masks when
// enabled — but returns the full energy-delay Pareto frontier instead of
// the single minimum-objective point: every feasible design for which no
// other feasible design is both faster and lower-energy. Points are
// returned sorted by increasing delay (hence decreasing energy), together
// with the same SearchStats Optimize reports. Options.Objective is ignored.
//
// The frontier exposes the trade-off the EDP scalarization hides — e.g. how
// much energy a delay-critical cache bank must pay to match LVT speed.
//
// The search runs on Optimize's walker with the front as its reducer (run
// span core.search.pareto), cancels on the first model error or ctx
// cancellation — returning a *SearchError carrying the counts so far — and
// resolves metric ties canonically so the returned frontier is
// deterministic for any GOMAXPROCS.
func (f *Framework) Pareto(ctx context.Context, opts Options) (*ParetoResult, error) {
	s, err := f.newSearch(ctx, opts, true)
	if err != nil {
		return nil, err
	}
	slots, st, err := s.walk()
	if err != nil {
		return nil, err
	}
	// A globally non-dominated point survives every worker-local reduction,
	// so the union of the worker fronts contains the global frontier however
	// the chunks were distributed, and an exact metric tie keeps the
	// canonically smaller design whatever the order of insertion; the
	// staircase holds the frontier sorted by increasing delay.
	var merged front
	for i := range slots {
		for _, m := range slots[i].front.pts {
			merged.insert(m.res)
		}
	}
	if len(merged.pts) == 0 {
		return nil, &SearchError{
			Stats: st,
			Cause: fmt.Errorf("%w: empty Pareto front for %d bits", ErrInfeasible, s.opts.CapacityBits),
		}
	}
	pts := make([]DesignPoint, len(merged.pts))
	for i, m := range merged.pts {
		pts[i] = DesignPoint{Design: m.res.Design, Result: m.res}
	}
	return &ParetoResult{Front: pts, Stats: st}, nil
}

// front is an energy-delay Pareto front kept as a staircase: its members
// sorted by strictly increasing delay D, which makes their energy E
// strictly decreasing, in dense D and E lanes. Domination is on (D, E),
// minimizing both, so the members with D ≤ some d form a prefix whose last
// member has the lowest E, and every test against the front is a binary
// search for that member. The searched D and E are finite EvalSweep lanes;
// the binary search relies on it, since a NaN member would break the order.
//
// A worker's front and the merged front keep one member reference per
// member in pts, aligned with the lanes; exact (D, E) ties keep the
// canonically smaller design, so the front does not depend on insertion
// order. A prune front (DESIGN.md §11) keeps the lanes alone.
type front struct {
	d, e []float64
	pts  []member
}

// member refers to a front member's point: its Result once built, or, while
// the unit it entered in is swept, its (N_pre, N_wr) in that unit. A worker
// builds the Results of the members still standing at the end of each
// unit (search.endUnit), reusing those of the built members its front
// dropped, so a merged front holds built members only.
type member struct {
	res       *array.Result
	npre, nwr int32
}

// standing is how a point stands against a front.
type standing uint8

const (
	enters    standing = iota // no member weakly dominates the point
	ties                      // a member has exactly the point's (D, E)
	dominated                 // a member weakly dominates the point without tying it
)

// floor returns the index of the last member with D ≤ d, or −1.
func (f *front) floor(d float64) int {
	lo, hi := 0, len(f.d)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f.d[m] <= d {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// locate returns how the point (d, e) stands against the front, with the
// index of the last member with D ≤ d (−1 if none): the only member that
// can tie or weakly dominate the point.
func (f *front) locate(d, e float64) (int, standing) {
	k := f.floor(d)
	switch {
	case k < 0 || f.e[k] > e:
		return k, enters
	case f.d[k] == d && f.e[k] == e:
		return k, ties
	}
	return k, dominated
}

// dominatesRect reports whether a member proves every point of a rectangle
// with metric lower bounds (bD, bE) redundant: some q is ≤ the bound in
// both metrics and strictly below in at least one. Strictness in one
// coordinate protects exact metric ties, whose canonical replacement must
// still see the candidate. Only the last member with D ≤ bD can qualify:
// those before it have higher E.
func (f *front) dominatesRect(bD, bE float64) bool {
	k := f.floor(bD)
	if k < 0 {
		return false
	}
	if f.d[k] < bD {
		return f.e[k] <= bE
	}
	return f.e[k] < bE
}

// add folds the point (d, e) into the lanes and returns how it stood: only
// a point that enters changes the front.
func (f *front) add(d, e float64) standing {
	k, st := f.locate(d, e)
	if st == enters {
		f.place(k, d, e)
	}
	return st
}

// insert folds a built point into the front: dropped if a member weakly
// dominates it, replacing an exact tie if its design is canonically
// smaller, otherwise taking its place on the staircase and evicting the
// members it dominates.
func (f *front) insert(res *array.Result) {
	k, st := f.locate(res.DArray, res.EArray)
	if st == enters || st == ties && designLess(res.Design, f.pts[k].res.Design) {
		f.put(k, st, res.DArray, res.EArray, member{res: res}, nil)
	}
}

// put folds the point (d, e), which stands st at locate's index k and
// changes the front, in as m: in place of the member it ties, or on the
// staircase in place of the members it dominates. A worker front passes
// spare, which takes the built Results of the members put drops, for the
// worker to build later members into; the merged front's dropped members
// are other workers' final Results, and it passes nil.
func (f *front) put(k int, st standing, d, e float64, m member, spare *[]*array.Result) {
	lo, hi := k, k+1
	if st != ties {
		lo, hi = f.place(k, d, e)
	}
	if spare != nil {
		for _, old := range f.pts[lo:hi] {
			if old.res != nil {
				*spare = append(*spare, old.res)
			}
		}
	}
	f.pts = slices.Replace(f.pts, lo, hi, m)
}

// place puts a point (d, e) that enters after member k on the lanes in
// place of the members [lo, hi) it weakly dominates, and returns that run:
// member k itself when it has the same D (its E is higher), and the
// members after it whose E is not below e.
func (f *front) place(k int, d, e float64) (lo, hi int) {
	lo, hi = k+1, k+1
	if k >= 0 && f.d[k] == d {
		lo = k
	}
	for hi < len(f.e) && f.e[hi] >= e {
		hi++
	}
	f.d = slices.Replace(f.d, lo, hi, d)
	f.e = slices.Replace(f.e, lo, hi, e)
	return lo, hi
}

// reset makes f a copy of src's lanes, reusing f's storage.
func (f *front) reset(src *front) {
	f.d = append(f.d[:0], src.d...)
	f.e = append(f.e[:0], src.e...)
}

// KneePoint returns the index of the frontier point closest (in normalized
// log space) to the utopia point (min delay, min energy) — a useful default
// pick when EDP is not the intended scalarization. It panics on an empty
// frontier.
func KneePoint(front []DesignPoint) int {
	if len(front) == 0 {
		panic("core: KneePoint of empty frontier")
	}
	minD, minE := math.Inf(1), math.Inf(1)
	maxD, maxE := math.Inf(-1), math.Inf(-1)
	for _, p := range front {
		minD = math.Min(minD, p.Result.DArray)
		minE = math.Min(minE, p.Result.EArray)
		maxD = math.Max(maxD, p.Result.DArray)
		maxE = math.Max(maxE, p.Result.EArray)
	}
	spanD, spanE := maxD-minD, maxE-minE
	if spanD == 0 {
		spanD = 1
	}
	if spanE == 0 {
		spanE = 1
	}
	best, bestDist := 0, math.Inf(1)
	for i, p := range front {
		dd := (p.Result.DArray - minD) / spanD
		de := (p.Result.EArray - minE) / spanE
		if dist := dd*dd + de*de; dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}
