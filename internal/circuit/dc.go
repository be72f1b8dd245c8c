package circuit

import (
	"fmt"
	"math"
	"time"

	"sramco/internal/num"
	"sramco/internal/obs"
)

// Solver tolerances and limits.
const (
	dxTol      = 1e-11 // V, Newton update convergence threshold
	residTol   = 1e-13 // A, KCL residual threshold
	maxNewton  = 400   // Newton iterations per solve attempt
	dampClampV = 0.15  // V, max per-iteration node-voltage change
	fdStep     = 1e-7  // V, finite-difference step for FET conductances
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
// powers the circuit).
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

// assembler holds the reusable Newton workspace for one circuit. Every
// solve iterates in buffers it owns, so a DC sweep point or a transient step
// allocates nothing.
type assembler struct {
	c   *Circuit
	nn  int // nodes incl. ground
	nv  int // voltage sources
	dim int // unknowns: (nn-1) node voltages + nv branch currents
	a   *num.Matrix
	rhs []float64

	lu   *num.LU     // reusable factorization storage
	xn   []float64   // reusable linear-solve output
	fres []float64   // reusable KCL residual vector
	sol  []float64   // solveRobust output of sweeps and operating points
	half [][]float64 // per-depth midpoints of transient step halving

	halvings int64 // transient step halvings of this analysis (for tracing)
}

func newAssembler(c *Circuit) *assembler {
	nn := c.NumNodes()
	nv := len(c.vsrc)
	dim := nn - 1 + nv
	for i, v := range c.vsrc {
		v.br = nn - 1 + i
	}
	return &assembler{
		c: c, nn: nn, nv: nv, dim: dim,
		a: num.NewMatrix(dim, dim), rhs: make([]float64, dim),
		lu: num.NewLU(dim), xn: make([]float64, dim), fres: make([]float64, nn-1),
		sol: make([]float64, dim),
	}
}

// halfBuf returns the midpoint buffer of a step halving at the given depth,
// allocating it on the first halving that deep.
func (as *assembler) halfBuf(depth int) []float64 {
	for len(as.half) <= depth {
		as.half = append(as.half, make([]float64, as.dim))
	}
	return as.half[depth]
}

// row maps a node index to its matrix row, or -1 for ground.
func row(node int) int { return node - 1 }

// fetEval returns the drain current and small-signal conductances of a FET
// instance at the given terminal voltages.
func fetEval(f *fet, vd, vg, vs float64) (id, gm, gds float64) {
	w := float64(f.Fins)
	eval := func(vd, vg, vs float64) float64 {
		return w * f.Model.IdsShift(vg-vs, vd-vs, f.DVt)
	}
	id = eval(vd, vg, vs)
	gm = (eval(vd, vg+fdStep, vs) - eval(vd, vg-fdStep, vs)) / (2 * fdStep)
	gds = (eval(vd+fdStep, vg, vs) - eval(vd-fdStep, vg, vs)) / (2 * fdStep)
	return id, gm, gds
}

// assemble builds the linearized MNA system A·x_new = rhs around iterate x.
// srcScale scales all independent sources (source stepping); gmin adds a
// leak conductance from every node to ground; tc enables capacitor
// companions for transient steps.
func (as *assembler) assemble(x []float64, t, gmin, srcScale float64, tc *tranCtx) {
	as.a.Zero()
	for i := range as.rhs {
		as.rhs[i] = 0
	}
	a, rhs := as.a, as.rhs

	stampG := func(na, nb int, g float64) {
		ra, rb := row(na), row(nb)
		if ra >= 0 {
			a.Add(ra, ra, g)
		}
		if rb >= 0 {
			a.Add(rb, rb, g)
		}
		if ra >= 0 && rb >= 0 {
			a.Add(ra, rb, -g)
			a.Add(rb, ra, -g)
		}
	}
	// Current i injected INTO node n (from a companion/current source).
	inject := func(n int, i float64) {
		if r := row(n); r >= 0 {
			rhs[r] += i
		}
	}

	for _, r := range as.c.res {
		stampG(r.a, r.b, r.g)
	}
	if gmin > 0 {
		for n := 1; n < as.nn; n++ {
			a.Add(row(n), row(n), gmin)
		}
	}
	for _, f := range as.c.fets {
		vd, vg, vs := nodeV(x, f.d), nodeV(x, f.g), nodeV(x, f.s)
		id, gm, gds := fetEval(f, vd, vg, vs)
		gs := -(gm + gds)
		// Companion current source: the linearization offset.
		ieq := id - gm*vg - gds*vd - gs*vs
		rd, rg, rs := row(f.d), row(f.g), row(f.s)
		add := func(r, cnode int, v float64) {
			if r >= 0 && cnode >= 0 {
				a.Add(r, cnode, v)
			}
		}
		// KCL: current id leaves the drain node into the channel and exits
		// at the source node.
		add(rd, rg, gm)
		add(rd, rd, gds)
		add(rd, rs, gs)
		add(rs, rg, -gm)
		add(rs, rd, -gds)
		add(rs, rs, -gs)
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
	for _, v := range as.c.vsrc {
		ra, rb, br := row(v.a), row(v.b), v.br
		if ra >= 0 {
			a.Add(ra, br, 1)
			a.Add(br, ra, 1)
		}
		if rb >= 0 {
			a.Add(rb, br, -1)
			a.Add(br, rb, -1)
		}
		rhs[br] = v.wave.At(t) * srcScale
	}
}

// nodeV reads node n's voltage from the unknown vector (ground = 0).
func nodeV(x []float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x[n-1]
}

// residual computes the KCL residual (net current leaving each non-ground
// node) at iterate x, excluding voltage-source branches, whose currents are
// free variables that absorb their node residuals.
func (as *assembler) residual(x []float64, t, srcScale float64, tc *tranCtx) float64 {
	f := as.fres
	for i := range f {
		f[i] = 0
	}
	addI := func(n int, i float64) { // current i leaves node n
		if r := row(n); r >= 0 {
			f[r] += i
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
	for _, v := range as.c.vsrc {
		i := x[v.br]
		addI(v.a, i)
		addI(v.b, -i)
	}
	return num.NormInf(f)
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
// reports how many it ran and whether they converged. A singular Jacobian
// is an error. It touches no counters; callers account for the attempt.
func (as *assembler) iterate(x []float64, t, gmin, srcScale float64, tc *tranCtx, clamp float64, maxIt int) (int, bool, error) {
	for it := 0; it < maxIt; it++ {
		as.assemble(x, t, gmin, srcScale, tc)
		if err := as.lu.Refactor(as.a); err != nil {
			return it + 1, false, fmt.Errorf("circuit: singular Jacobian at iteration %d: %w", it, err)
		}
		as.lu.SolveInto(as.xn, as.rhs)
		xn := as.xn
		var maxDx float64
		for i := 0; i < as.nn-1; i++ {
			dx := xn[i] - x[i]
			if a := math.Abs(dx); a > maxDx {
				maxDx = a
			}
			if dx > clamp {
				dx = clamp
			} else if dx < -clamp {
				dx = -clamp
			}
			x[i] += dx
		}
		for i := as.nn - 1; i < as.dim; i++ {
			x[i] = xn[i]
		}
		if maxDx < dxTol {
			// Re-solve branch currents at the final voltages, then verify KCL.
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

func (as *assembler) result(x []float64) *DCResult {
	r := &DCResult{volts: make(map[string]float64, as.nn), isrcs: make(map[string]float64, as.nv)}
	for i, name := range as.c.nodeNames {
		r.volts[name] = nodeV(x, i)
	}
	for _, v := range as.c.vsrc {
		// x[v.br] is the current a→b inside the source; the delivered
		// current out of the positive terminal is its negation.
		r.isrcs[v.name] = -x[v.br]
	}
	return r
}

// DCOperatingPoint solves the DC operating point. Initial conditions set via
// SetIC seed the Newton iteration, selecting among stable states of bistable
// circuits such as SRAM cells.
func (c *Circuit) DCOperatingPoint() (*DCResult, error) {
	start := time.Now()
	as := newAssembler(c)
	x0 := c.initialGuess(0, as.dim)
	err := as.solveRobust(x0, 0, nil, as.sol)
	mDCOps.Inc()
	hDCOpDur.Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	return as.result(as.sol), nil
}

// DCSweep solves the operating point for each value of the named voltage
// source, using continuation (each solution seeds the next). The source's
// waveform is restored afterwards.
func (c *Circuit) DCSweep(source string, values []float64) ([]*DCResult, error) {
	var src *vsource
	for _, v := range c.vsrc {
		if v.name == source {
			src = v
			break
		}
	}
	if src == nil {
		return nil, fmt.Errorf("circuit: DCSweep: no voltage source %q", source)
	}
	orig := src.wave
	defer func() { src.wave = orig }()

	sp := obs.StartSpan("circuit.dc_sweep")
	as := newAssembler(c)
	results := make([]*DCResult, 0, len(values))
	x := c.initialGuess(0, as.dim)
	for i, val := range values {
		src.wave = DC(val)
		if err := as.solveRobust(x, 0, nil, as.sol); err != nil {
			mDCSweepPoints.Add(int64(i))
			return nil, fmt.Errorf("circuit: DCSweep %s=%g (point %d): %w", source, val, i, err)
		}
		copy(x, as.sol)
		results = append(results, as.result(x))
	}
	mDCSweepPoints.Add(int64(len(values)))
	sp.Str("source", source)
	sp.Int("points", int64(len(values)))
	sp.End()
	return results, nil
}
