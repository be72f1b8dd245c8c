package circuit

import (
	"fmt"
	"math"

	"sramco/internal/num"
)

// The full-MNA reference solver: the kernel as it stood before pinned-node
// elimination and analytic conductances. Every node is an unknown, every
// voltage source carries a branch current, and FET conductances come from
// central finite differences. It allocates freely and exists only as the
// oracle the production kernel is checked against (kernel_oracle_test.go,
// mna_oracle_test.go).

// fdStep is the finite-difference step of the reference's FET conductances.
const fdStep = 1e-7 // V

// mna holds one circuit's full-MNA system: unknowns are the nn−1 node
// voltages, then one branch current a→b per voltage source in netlist
// order.
type mna struct {
	c   *Circuit
	nn  int
	dim int
}

// mnaRow maps a node index to its matrix row, or −1 for ground.
func mnaRow(n int) int { return n - 1 }

func newMNA(c *Circuit) *mna {
	return &mna{c: c, nn: c.NumNodes(), dim: c.NumNodes() - 1 + len(c.vsrc)}
}

// fdFetEval is the finite-difference conductance evaluation the kernel used
// before IdsShiftGrad: five IdsShift calls per FET.
func fdFetEval(f *fet, vd, vg, vs float64) (id, gm, gds float64) {
	w := float64(f.Fins)
	eval := func(vd, vg, vs float64) float64 {
		return w * f.Model.IdsShift(vg-vs, vd-vs, f.DVt)
	}
	id = eval(vd, vg, vs)
	gm = (eval(vd, vg+fdStep, vs) - eval(vd, vg-fdStep, vs)) / (2 * fdStep)
	gds = (eval(vd+fdStep, vg, vs) - eval(vd-fdStep, vg, vs)) / (2 * fdStep)
	return id, gm, gds
}

// assemble builds the linearized MNA system around iterate x.
func (r *mna) assemble(x []float64, t, gmin, srcScale float64, tc *tranCtx) (*num.Matrix, []float64) {
	a, rhs := num.NewMatrix(r.dim, r.dim), make([]float64, r.dim)
	add := func(i, j int, v float64) {
		if i >= 0 && j >= 0 {
			a.Add(i, j, v)
		}
	}
	stampG := func(na, nb int, g float64) {
		ra, rb := mnaRow(na), mnaRow(nb)
		add(ra, ra, g)
		add(rb, rb, g)
		add(ra, rb, -g)
		add(rb, ra, -g)
	}
	inject := func(n int, i float64) {
		if rr := mnaRow(n); rr >= 0 {
			rhs[rr] += i
		}
	}
	for _, rs := range r.c.res {
		stampG(rs.a, rs.b, rs.g)
	}
	if gmin > 0 {
		for n := 1; n < r.nn; n++ {
			a.Add(mnaRow(n), mnaRow(n), gmin)
		}
	}
	for _, f := range r.c.fets {
		vd, vg, vs := nodeV(x, f.d), nodeV(x, f.g), nodeV(x, f.s)
		id, gm, gds := fdFetEval(f, vd, vg, vs)
		gs := -(gm + gds)
		ieq := id - gm*vg - gds*vd - gs*vs
		rd, rg, rs := mnaRow(f.d), mnaRow(f.g), mnaRow(f.s)
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
		for _, cp := range r.c.caps {
			g := cp.cap / tc.dt
			stampG(cp.a, cp.b, g)
			vabPrev := nodeV(tc.xprev, cp.a) - nodeV(tc.xprev, cp.b)
			inject(cp.a, g*vabPrev)
			inject(cp.b, -g*vabPrev)
		}
	}
	for _, s := range r.c.isrc {
		i := s.wave.At(t) * srcScale
		inject(s.a, -i)
		inject(s.b, i)
	}
	for k, v := range r.c.vsrc {
		br := r.nn - 1 + k
		add(mnaRow(v.a), br, 1)
		add(br, mnaRow(v.a), 1)
		add(mnaRow(v.b), br, -1)
		add(br, mnaRow(v.b), -1)
		rhs[br] = v.wave.At(t) * srcScale
	}
	return a, rhs
}

// residual is the KCL residual over every node, branch currents included.
func (r *mna) residual(x []float64, t, srcScale float64, tc *tranCtx) float64 {
	f := make([]float64, r.nn-1)
	addI := func(n int, i float64) {
		if n > 0 {
			f[n-1] += i
		}
	}
	for _, rs := range r.c.res {
		i := (nodeV(x, rs.a) - nodeV(x, rs.b)) * rs.g
		addI(rs.a, i)
		addI(rs.b, -i)
	}
	for _, ft := range r.c.fets {
		vs := nodeV(x, ft.s)
		id := float64(ft.Fins) * ft.Model.IdsShift(nodeV(x, ft.g)-vs, nodeV(x, ft.d)-vs, ft.DVt)
		addI(ft.d, id)
		addI(ft.s, -id)
	}
	if tc != nil {
		for _, cp := range r.c.caps {
			i := cp.cap / tc.dt * ((nodeV(x, cp.a) - nodeV(x, cp.b)) - (nodeV(tc.xprev, cp.a) - nodeV(tc.xprev, cp.b)))
			addI(cp.a, i)
			addI(cp.b, -i)
		}
	}
	for _, s := range r.c.isrc {
		i := s.wave.At(t) * srcScale
		addI(s.a, i)
		addI(s.b, -i)
	}
	for k, v := range r.c.vsrc {
		i := x[r.nn-1+k]
		addI(v.a, i)
		addI(v.b, -i)
	}
	return num.NormInf(f)
}

// newton runs damped Newton in place on x.
func (r *mna) newton(x []float64, t, gmin, srcScale float64, tc *tranCtx, clamp float64) error {
	lu, xn := num.NewLU(r.dim), make([]float64, r.dim)
	for it := 0; it < maxNewton; it++ {
		a, rhs := r.assemble(x, t, gmin, srcScale, tc)
		if err := lu.Refactor(a); err != nil {
			return fmt.Errorf("mna: singular Jacobian at iteration %d: %w", it, err)
		}
		lu.SolveInto(xn, rhs)
		var maxDx float64
		for i := 0; i < r.nn-1; i++ {
			dx := xn[i] - x[i]
			maxDx = math.Max(maxDx, math.Abs(dx))
			x[i] += math.Max(-clamp, math.Min(clamp, dx))
		}
		copy(x[r.nn-1:], xn[r.nn-1:])
		if maxDx < dxTol && r.residual(x, t, srcScale, tc) < residTol {
			return nil
		}
	}
	return fmt.Errorf("mna: Newton did not converge in %d iterations", maxNewton)
}

// solveRobust mirrors the kernel's fallback ladder: plain Newton, gmin
// stepping, source stepping, each at the standard and then a small clamp.
func (r *mna) solveRobust(x0 []float64, t float64, tc *tranCtx) ([]float64, error) {
	var lastErr error
	for _, clamp := range [...]float64{dampClampV, dampClampV / 8} {
		x := append([]float64(nil), x0...)
		if lastErr = r.newton(x, t, 0, 1, tc, clamp); lastErr == nil {
			return x, nil
		}
		x = append(x[:0], x0...)
		ok := true
		for _, gmin := range [...]float64{1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13, 0} {
			if lastErr = r.newton(x, t, gmin, 1, tc, clamp); lastErr != nil {
				ok = false
				break
			}
		}
		if ok {
			return x, nil
		}
		x = make([]float64, r.dim)
		ok = true
		for _, scale := range [...]float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
			if lastErr = r.newton(x, t, 1e-12, scale, tc, clamp); lastErr != nil {
				ok = false
				break
			}
		}
		if ok {
			if lastErr = r.newton(x, t, 0, 1, tc, clamp); lastErr == nil {
				return x, nil
			}
		}
	}
	return nil, lastErr
}

// start is the reference's Newton start point at time t: grounded sources'
// nodes at their values, then the SetIC values.
func (r *mna) start(t float64) []float64 {
	x := make([]float64, r.dim)
	for _, v := range r.c.vsrc {
		if v.b == 0 && v.a != 0 {
			x[v.a-1] = v.wave.At(t)
		}
		if v.a == 0 && v.b != 0 {
			x[v.b-1] = -v.wave.At(t)
		}
	}
	for name, vv := range r.c.ic {
		if i := r.c.nodeIndex[name]; i > 0 {
			x[i-1] = vv
		}
	}
	return x
}

// result snapshots a reference solution; source currents are the solved
// branch currents.
func (r *mna) result(x []float64) *DCResult {
	res := &DCResult{volts: map[string]float64{}, isrcs: map[string]float64{}}
	for i, name := range r.c.nodeNames {
		res.volts[name] = nodeV(x, i)
	}
	for k, v := range r.c.vsrc {
		res.isrcs[v.name] = -x[r.nn-1+k]
	}
	return res
}

// mnaOperatingPoint is the reference DCOperatingPoint.
func mnaOperatingPoint(c *Circuit) (*DCResult, error) {
	r := newMNA(c)
	x, err := r.solveRobust(r.start(0), 0, nil)
	if err != nil {
		return nil, err
	}
	return r.result(x), nil
}

// mnaSweep is the reference DC sweep: continuation over values of the named
// source, reporting the observed node at each point.
func mnaSweep(c *Circuit, source, node string, values []float64) ([]float64, error) {
	var src *vsource
	for _, v := range c.vsrc {
		if v.name == source {
			src = v
		}
	}
	if src == nil {
		return nil, fmt.Errorf("mna: no voltage source %q", source)
	}
	orig := src.wave
	defer func() { src.wave = orig }()
	r := newMNA(c)
	x := r.start(0)
	out := make([]float64, len(values))
	for i, v := range values {
		src.wave = DC(v)
		var err error
		if x, err = r.solveRobust(x, 0, nil); err != nil {
			return nil, err
		}
		out[i] = nodeV(x, c.nodeIndex[node])
	}
	return out, nil
}

// mnaTransient is the reference transient over the full window, with the
// kernel's step halving; it returns the final state's node voltages by name.
func mnaTransient(c *Circuit, opts TranOpts) (map[string]float64, error) {
	r := newMNA(c)
	x := r.start(0)
	if !opts.UIC {
		var err error
		if x, err = r.solveRobust(x, 0, nil); err != nil {
			return nil, err
		}
	}
	var step func(x []float64, t, dt float64, depth int) ([]float64, error)
	step = func(x []float64, t, dt float64, depth int) ([]float64, error) {
		out := append([]float64(nil), x...)
		err := r.newton(out, t+dt, 0, 1, &tranCtx{dt: dt, xprev: x}, dampClampV)
		if err == nil {
			return out, nil
		}
		if depth >= 12 {
			return nil, err
		}
		mid, err := step(x, t, dt/2, depth+1)
		if err != nil {
			return nil, err
		}
		return step(mid, t+dt/2, dt/2, depth+1)
	}
	for t := 0.0; t < opts.TStop-opts.DT*1e-9; {
		dt := math.Min(opts.DT, opts.TStop-t)
		var err error
		if x, err = step(x, t, dt, 0); err != nil {
			return nil, err
		}
		t += dt
	}
	return r.result(x).volts, nil
}
