package circuit

import (
	"fmt"
	"math"
	"time"

	"sramco/internal/num"
)

// Solver tolerances and limits.
const (
	dxTol      = 1e-11 // V, Newton update convergence threshold
	residTol   = 1e-13 // A, KCL residual threshold
	maxNewton  = 400   // Newton iterations per solve attempt
	dampClampV = 0.15  // V, max per-iteration node-voltage change
)

// DCResult is the outcome of a DC analysis.
type DCResult struct {
	volts map[string]float64
	isrcs map[string]float64
}

// V returns the solved voltage of a node. Unknown nodes panic: asking for a
// node that is not in the netlist is a programming error.
func (r *DCResult) V(node string) float64 {
	v, ok := r.volts[node]
	if !ok {
		panic(fmt.Sprintf("circuit: no node %q in result", node))
	}
	return v
}

// SourceCurrent returns the current delivered by the named voltage source
// out of its positive terminal into the circuit (positive when the source
// powers the circuit). For a source that pins a node to ground it is the
// KCL current at that node; a floating source's is its branch current.
func (r *DCResult) SourceCurrent(name string) float64 {
	i, ok := r.isrcs[name]
	if !ok {
		panic(fmt.Sprintf("circuit: no voltage source %q in result", name))
	}
	return i
}

// tranCtx carries backward-Euler companion state for transient solves.
type tranCtx struct {
	dt    float64
	xprev []float64
}

// pin is a node held by a grounded voltage source: V(n) is the source's
// value, negated when the source's positive terminal is the ground.
type pin struct {
	n   int
	src *vsource
	neg bool
}

// branch is a floating voltage source. Unknown k of the Newton system, and
// entry si of the state, carry its current a→b through the source.
type branch struct {
	src   *vsource
	k, si int
}

// assembler holds the reusable Newton workspace for one circuit. A node that
// a grounded voltage source pins is no unknown: its voltage is known at
// every time and source scale, so the Newton system holds only the free
// nodes plus one branch current per floating source (DESIGN.md §14). The
// state vector still carries every node voltage — pinned ones written
// before each solve — so readers index it by node. Every solve iterates in
// buffers the assembler owns, so a DC sweep point or a transient step
// allocates nothing.
type assembler struct {
	c    *Circuit
	nn   int      // nodes incl. ground
	dim  int      // state length: nn−1 node voltages, then the branch currents
	col  []int    // node → Newton unknown; −1 for ground and pinned nodes
	free []int    // Newton unknown → node, for the free nodes
	pins []pin    // nodes held by grounded sources
	brs  []branch // floating sources, which keep their MNA stamp
	a    *num.Matrix
	rhs  []float64

	lu   *num.LU     // reusable factorization storage
	xn   []float64   // reusable linear-solve output
	fres []float64   // reusable per-node KCL currents
	sol  []float64   // solveRobust output of sweeps and operating points
	half [][]float64 // per-depth midpoints of transient step halving

	halvings int64 // transient step halvings of this analysis (for tracing)
}

// newAssembler classifies the circuit's nodes. A source with exactly one
// grounded terminal pins the other one; every other source — including a
// second grounded source on a node already pinned, whose empty equation
// then makes the Jacobian singular just as two parallel sources do in full
// MNA — is a floating branch.
func newAssembler(c *Circuit) *assembler {
	nn := c.NumNodes()
	as := &assembler{c: c, nn: nn, col: make([]int, nn)}
	as.col[0] = -1
	for _, v := range c.vsrc { // col = −1 marks a pinned node
		n, neg := v.a, false
		if v.a == 0 {
			n, neg = v.b, true
		}
		if (v.a == 0) != (v.b == 0) && as.col[n] == 0 {
			as.col[n] = -1
			as.pins = append(as.pins, pin{n: n, src: v, neg: neg})
			continue
		}
		as.brs = append(as.brs, branch{src: v})
	}
	for n := 1; n < nn; n++ {
		if as.col[n] == 0 {
			as.col[n] = len(as.free)
			as.free = append(as.free, n)
		}
	}
	for i := range as.brs {
		as.brs[i].k = len(as.free) + i
		as.brs[i].si = nn - 1 + i
	}
	as.dim = nn - 1 + len(as.brs)
	m := len(as.free) + len(as.brs)
	as.a, as.rhs = num.NewMatrix(m, m), make([]float64, m)
	as.lu, as.xn = num.NewLU(m), make([]float64, m)
	as.fres, as.sol = make([]float64, nn-1), make([]float64, as.dim)
	return as
}

// halfBuf returns the midpoint buffer of a step halving at the given depth,
// allocating it on the first halving that deep.
func (as *assembler) halfBuf(depth int) []float64 {
	for len(as.half) <= depth {
		as.half = append(as.half, make([]float64, as.dim))
	}
	return as.half[depth]
}

// pin writes every pinned node's voltage at time t and source scale
// srcScale into the state x.
func (as *assembler) pin(x []float64, t, srcScale float64) {
	for _, p := range as.pins {
		v := p.src.wave.At(t) * srcScale
		if p.neg {
			v = -v
		}
		x[p.n-1] = v
	}
}

// start fills the state x with the Newton start point at time t: zero,
// pinned nodes at their voltages, then the SetIC values.
func (as *assembler) start(x []float64, t float64) {
	for i := range x {
		x[i] = 0
	}
	as.pin(x, t, 1)
	for name, v := range as.c.ic {
		if i := as.c.nodeIndex[name]; i > 0 {
			x[i-1] = v
		}
	}
}

// fetEval returns the drain current and small-signal conductances of a FET
// instance at the given terminal voltages, from the model's analytic
// partials.
func fetEval(f *fet, vd, vg, vs float64) (id, gm, gds float64) {
	w := float64(f.Fins)
	id, gm, gds = f.Model.IdsShiftGrad(vg-vs, vd-vs, f.DVt)
	return w * id, w * gm, w * gds
}

// assemble builds the linearized system A·x_new = rhs over the free nodes
// and floating-source branches around the state x, whose pinned entries
// must already hold their voltages. A pinned node's column moves to the
// right-hand side at its known voltage. srcScale scales all independent
// sources (source stepping); gmin adds a leak conductance from every free
// node to ground; tc enables capacitor companions for transient steps.
func (as *assembler) assemble(x []float64, t, gmin, srcScale float64, tc *tranCtx) {
	as.a.Zero()
	for i := range as.rhs {
		as.rhs[i] = 0
	}
	a, rhs, col := as.a, as.rhs, as.col

	// stamp adds g·V(n) to the left side of equation r.
	stamp := func(r, n int, g float64) {
		if r < 0 {
			return
		}
		if k := col[n]; k >= 0 {
			a.Add(r, k, g)
		} else if n != 0 {
			rhs[r] -= g * x[n-1]
		}
	}
	stampG := func(na, nb int, g float64) {
		ra, rb := col[na], col[nb]
		stamp(ra, na, g)
		stamp(ra, nb, -g)
		stamp(rb, nb, g)
		stamp(rb, na, -g)
	}
	// Current i injected INTO node n (from a companion/current source).
	inject := func(n int, i float64) {
		if r := col[n]; r >= 0 {
			rhs[r] += i
		}
	}

	for _, r := range as.c.res {
		stampG(r.a, r.b, r.g)
	}
	if gmin > 0 {
		for k := range as.free {
			a.Add(k, k, gmin)
		}
	}
	for _, f := range as.c.fets {
		rd, rs := col[f.d], col[f.s]
		if rd < 0 && rs < 0 {
			continue // no free node carries its current
		}
		vd, vg, vs := nodeV(x, f.d), nodeV(x, f.g), nodeV(x, f.s)
		id, gm, gds := fetEval(f, vd, vg, vs)
		gs := -(gm + gds)
		// Companion current source: the linearization offset.
		ieq := id - gm*vg - gds*vd - gs*vs
		// KCL: current id leaves the drain node into the channel and exits
		// at the source node.
		stamp(rd, f.g, gm)
		stamp(rd, f.d, gds)
		stamp(rd, f.s, gs)
		stamp(rs, f.g, -gm)
		stamp(rs, f.d, -gds)
		stamp(rs, f.s, -gs)
		inject(f.d, -ieq)
		inject(f.s, ieq)
	}
	if tc != nil {
		gc := 1.0 / tc.dt
		for _, cp := range as.c.caps {
			g := cp.cap * gc
			stampG(cp.a, cp.b, g)
			vabPrev := nodeV(tc.xprev, cp.a) - nodeV(tc.xprev, cp.b)
			inject(cp.a, g*vabPrev)
			inject(cp.b, -g*vabPrev)
		}
	}
	for _, s := range as.c.isrc {
		i := s.wave.At(t) * srcScale
		// Current flows from node a through the source into node b.
		inject(s.a, -i)
		inject(s.b, i)
	}
	for _, b := range as.brs {
		v := b.src
		if r := col[v.a]; r >= 0 {
			a.Add(r, b.k, 1)
		}
		if r := col[v.b]; r >= 0 {
			a.Add(r, b.k, -1)
		}
		stamp(b.k, v.a, 1)
		stamp(b.k, v.b, -1)
		rhs[b.k] += v.wave.At(t) * srcScale
	}
}

// nodeV reads node n's voltage from the state vector (ground = 0).
func nodeV(x []float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x[n-1]
}

// kcl fills as.fres with the net current leaving each non-ground node
// through the circuit's elements and floating-source branches at state x.
// A pinned node's entry is then the current its grounded source delivers
// into the circuit there, negated for a source whose positive terminal is
// the ground.
func (as *assembler) kcl(x []float64, t, srcScale float64, tc *tranCtx) {
	f := as.fres
	for i := range f {
		f[i] = 0
	}
	addI := func(n int, i float64) { // current i leaves node n
		if n > 0 {
			f[n-1] += i
		}
	}
	for _, r := range as.c.res {
		i := (nodeV(x, r.a) - nodeV(x, r.b)) * r.g
		addI(r.a, i)
		addI(r.b, -i)
	}
	for _, ft := range as.c.fets {
		vs := nodeV(x, ft.s)
		id := float64(ft.Fins) * ft.Model.IdsShift(nodeV(x, ft.g)-vs, nodeV(x, ft.d)-vs, ft.DVt)
		addI(ft.d, id)
		addI(ft.s, -id)
	}
	if tc != nil {
		for _, cp := range as.c.caps {
			i := cp.cap / tc.dt * ((nodeV(x, cp.a) - nodeV(x, cp.b)) - (nodeV(tc.xprev, cp.a) - nodeV(tc.xprev, cp.b)))
			addI(cp.a, i)
			addI(cp.b, -i)
		}
	}
	for _, s := range as.c.isrc {
		i := s.wave.At(t) * srcScale
		addI(s.a, i)
		addI(s.b, -i)
	}
	for _, b := range as.brs {
		i := x[b.si]
		addI(b.src.a, i)
		addI(b.src.b, -i)
	}
}

// residual returns the largest KCL imbalance over the free nodes at state
// x. Pinned nodes have none to check: their sources absorb it.
func (as *assembler) residual(x []float64, t, srcScale float64, tc *tranCtx) float64 {
	as.kcl(x, t, srcScale, tc)
	var r float64
	for _, n := range as.free {
		if a := math.Abs(as.fres[n-1]); a > r {
			r = a
		}
	}
	return r
}

// newton runs damped Newton in place on x with the default damping clamp.
func (as *assembler) newton(x []float64, t, gmin, srcScale float64, tc *tranCtx) error {
	return as.newtonDamped(x, t, gmin, srcScale, tc, dampClampV)
}

// newtonDamped runs damped Newton in place on x — the start point on entry,
// the solution on success, unspecified on failure — with an explicit
// per-iteration voltage clamp. Smaller clamps converge on stiffer problems
// (e.g. near a bistability fold) at the cost of more iterations.
func (as *assembler) newtonDamped(x []float64, t, gmin, srcScale float64, tc *tranCtx, clamp float64) error {
	its, ok, err := as.iterate(x, t, gmin, srcScale, tc, clamp, maxNewton)
	mNewtonIters.Add(int64(its))
	if err != nil {
		mNewtonSingular.Inc()
		return err
	}
	if !ok {
		mNewtonFails.Inc()
		return fmt.Errorf("circuit: Newton did not converge in %d iterations", maxNewton)
	}
	return nil
}

// iterate runs at most maxIt damped Newton iterations in place on x and
// reports how many it ran and whether they converged. It first writes the
// pinned voltages, which no iteration changes. A singular Jacobian is an
// error. It touches no counters; callers account for the attempt.
func (as *assembler) iterate(x []float64, t, gmin, srcScale float64, tc *tranCtx, clamp float64, maxIt int) (int, bool, error) {
	as.pin(x, t, srcScale)
	for it := 0; it < maxIt; it++ {
		var maxDx float64
		if len(as.rhs) > 0 {
			as.assemble(x, t, gmin, srcScale, tc)
			if err := as.lu.Refactor(as.a); err != nil {
				return it + 1, false, fmt.Errorf("circuit: singular Jacobian at iteration %d: %w", it, err)
			}
			as.lu.SolveInto(as.xn, as.rhs)
			for k, n := range as.free {
				dx := as.xn[k] - x[n-1]
				if a := math.Abs(dx); a > maxDx {
					maxDx = a
				}
				if dx > clamp {
					dx = clamp
				} else if dx < -clamp {
					dx = -clamp
				}
				x[n-1] += dx
			}
			for _, b := range as.brs {
				x[b.si] = as.xn[b.k]
			}
		}
		if maxDx < dxTol {
			if r := as.residual(x, t, srcScale, tc); r < residTol {
				return it + 1, true, nil
			}
		}
	}
	return maxIt, false, nil
}

// solveRobust solves into out from the start point x0, trying plain Newton,
// then gmin stepping, then source stepping — first with the standard
// damping clamp, then with a small clamp that handles stiff points such as
// bistability folds. out must not alias x0, which every fallback restarts
// from.
func (as *assembler) solveRobust(x0 []float64, t float64, tc *tranCtx, out []float64) error {
	var lastErr error
	for _, clamp := range [...]float64{dampClampV, dampClampV / 8} {
		copy(out, x0)
		if err := as.newtonDamped(out, t, 0, 1, tc, clamp); err == nil {
			return nil
		}
		// gmin stepping: relax with a strong leak and tighten it
		// continuously.
		mGminSteppings.Inc()
		copy(out, x0)
		ok := true
		for _, gmin := range [...]float64{1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13, 0} {
			if err := as.newtonDamped(out, t, gmin, 1, tc, clamp); err != nil {
				lastErr = err
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		// Source stepping: ramp all sources from 10% to 100%.
		mSrcSteppings.Inc()
		for i := range out {
			out[i] = 0
		}
		ok = true
		for _, scale := range [...]float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
			if err := as.newtonDamped(out, t, 1e-12, scale, tc, clamp); err != nil {
				lastErr = fmt.Errorf("circuit: source stepping failed at scale %.1f: %w", scale, err)
				ok = false
				break
			}
		}
		if ok {
			if err := as.newtonDamped(out, t, 0, 1, tc, clamp); err == nil {
				return nil
			} else {
				lastErr = err
			}
		}
	}
	return lastErr
}

// result snapshots a DC solution. A pinned source's current is the KCL
// current at its node — the one place the solver computes it.
func (as *assembler) result(x []float64) *DCResult {
	r := &DCResult{volts: make(map[string]float64, as.nn), isrcs: make(map[string]float64, len(as.pins)+len(as.brs))}
	for i, name := range as.c.nodeNames {
		r.volts[name] = nodeV(x, i)
	}
	if len(as.pins) > 0 {
		as.kcl(x, 0, 1, nil)
	}
	for _, p := range as.pins {
		i := as.fres[p.n-1]
		if p.neg {
			i = -i
		}
		r.isrcs[p.src.name] = i
	}
	for _, b := range as.brs {
		// x[b.si] is the current a→b inside the source; the delivered
		// current out of the positive terminal is its negation.
		r.isrcs[b.src.name] = -x[b.si]
	}
	return r
}

// DCOperatingPoint solves the DC operating point. Initial conditions set via
// SetIC seed the Newton iteration, selecting among stable states of bistable
// circuits such as SRAM cells.
func (c *Circuit) DCOperatingPoint() (*DCResult, error) {
	start := time.Now()
	as := newAssembler(c)
	x0 := make([]float64, as.dim)
	as.start(x0, 0)
	err := as.solveRobust(x0, 0, nil, as.sol)
	mDCOps.Inc()
	hDCOpDur.Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	return as.result(as.sol), nil
}

// DCSweep solves the operating point for each value of the named voltage
// source, using continuation (each solution seeds the next), and returns
// one DCResult per point. It is a Sweeper run that snapshots every point.
// The source's waveform is restored afterwards.
func (c *Circuit) DCSweep(source string, values []float64) ([]*DCResult, error) {
	s, err := c.newSweeper(source)
	if err != nil {
		return nil, err
	}
	results := make([]*DCResult, 0, len(values))
	if err := s.sweep(values, func(_ int, x []float64) { results = append(results, s.as.result(x)) }); err != nil {
		return nil, err
	}
	return results, nil
}
