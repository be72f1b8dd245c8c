package circuit

import (
	"fmt"
	"math"
	"time"

	"sramco/internal/obs"
)

// Sweeper is a reusable DC-sweep evaluator bound to one circuit and one
// swept voltage source: every DC sweep runs as a Sweeper's continuation
// loop. Sweep reports one observed node per point and never materializes a
// DCResult; it reuses the Newton workspace across calls. The Monte Carlo
// scratch path sweeps the same two VTC netlists tens of thousands of times;
// this is its hot loop.
type Sweeper struct {
	src  *vsource
	node int // observed node of Sweep
	as   *assembler
	x    []float64 // continuation state, reused across calls
	lvl  Level     // the swept source's waveform during a sweep
}

// NewSweeper binds a sweeper to the named voltage source and observed node.
// The circuit's topology must not change afterwards (SetV, SetIC, and
// SetFETDVt are fine; Add* are not).
func (c *Circuit) NewSweeper(source, node string) (*Sweeper, error) {
	s, err := c.newSweeper(source)
	if err != nil {
		return nil, err
	}
	ni, ok := c.nodeIndex[node]
	if !ok {
		return nil, fmt.Errorf("circuit: NewSweeper: no node %q", node)
	}
	s.node = ni
	return s, nil
}

func (c *Circuit) newSweeper(source string) (*Sweeper, error) {
	for _, v := range c.vsrc {
		if v.name == source {
			as := newAssembler(c)
			return &Sweeper{src: v, as: as, x: make([]float64, as.dim)}, nil
		}
	}
	return nil, fmt.Errorf("circuit: no voltage source %q to sweep", source)
}

// Sweep solves the operating point at each source value with continuation and
// stores the observed node's voltage in out[i]. out must have len(values).
// The source's waveform is restored afterwards.
func (s *Sweeper) Sweep(values []float64, out []float64) error {
	if len(out) != len(values) {
		return fmt.Errorf("circuit: Sweep: len(out)=%d, len(values)=%d", len(out), len(values))
	}
	return s.sweep(values, func(i int, x []float64) { out[i] = nodeV(x, s.node) })
}

// sweep is the continuation loop: it solves each point from the previous
// point's solution and hands point(i, state) the solution of point i.
func (s *Sweeper) sweep(values []float64, point func(i int, x []float64)) error {
	orig := s.src.wave
	defer func() { s.src.wave = orig }()

	sp := obs.StartSpan("circuit.dc_sweep")
	// Fresh initial guess per call: continuation state must not leak across
	// Monte Carlo samples, or results would depend on evaluation order.
	s.as.start(s.x, 0)
	s.src.wave = &s.lvl
	for i, val := range values {
		s.lvl.V = val
		if err := s.as.solveRobust(s.x, 0, nil, s.as.sol); err != nil {
			mDCSweepPoints.Add(int64(i))
			return fmt.Errorf("circuit: DCSweep %s=%g (point %d): %w", s.src.name, val, i, err)
		}
		copy(s.x, s.as.sol)
		point(i, s.x)
	}
	mDCSweepPoints.Add(int64(len(values)))
	sp.Str("source", s.src.name)
	sp.Int("points", int64(len(values)))
	sp.End()
	return nil
}

// TranRunner is a reusable backward-Euler transient evaluator bound to one
// circuit. It keeps only the latest state — Transient records waveforms by
// observing its steps — and ends a run early once a caller's Certificate
// says the outcome is settled. The Newton workspace is reused across runs,
// so a run allocates nothing.
type TranRunner struct {
	c     *Circuit
	as    *assembler
	x     []float64 // state after the last accepted step
	prev  []float64 // state before it
	eq    []float64 // last Equilibrium solution
	t     float64   // time of x
	steps int64     // accepted steps of the last Run
}

// A Certificate is consulted after every accepted step of TranRunner.Run
// and reports whether the run's outcome is already certain, so the rest of
// the window need not be integrated. It reads the state through V and PrevV
// and may call Equilibrium. A certificate must only claim what the full
// window would show: Run trusts it and stops.
type Certificate func(tr *TranRunner) bool

// NewTranRunner binds a transient runner to the circuit. The circuit's
// topology must not change afterwards.
func (c *Circuit) NewTranRunner() *TranRunner {
	as := newAssembler(c)
	return &TranRunner{c: c, as: as,
		x: make([]float64, as.dim), prev: make([]float64, as.dim), eq: make([]float64, as.dim)}
}

// Run executes the transient analysis, keeping only the latest state, and
// stops after the first step at which settled (if non-nil) returns true.
// Query the state where it stopped with V.
func (tr *TranRunner) Run(opts TranOpts, settled Certificate) error {
	if opts.TStop <= 0 || opts.DT <= 0 {
		return fmt.Errorf("circuit: Transient requires positive TStop and DT (got %g, %g)", opts.TStop, opts.DT)
	}
	start := time.Now()
	sp := obs.StartSpan("circuit.transient")
	mTranRuns.Inc()
	as := tr.as
	as.halvings = 0
	as.start(tr.x, 0)
	if !opts.UIC {
		if err := as.solveRobust(tr.x, 0, nil, as.sol); err != nil {
			return fmt.Errorf("circuit: transient initial operating point: %w", err)
		}
		copy(tr.x, as.sol)
	}

	tr.t, tr.steps = 0, 0
	for tr.t < opts.TStop-opts.DT*1e-9 {
		dt := math.Min(opts.DT, opts.TStop-tr.t)
		tr.prev, tr.x = tr.x, tr.prev
		tn, err := tr.c.step(as, tr.prev, tr.t, dt, 0, tr.x)
		if err != nil {
			mTranFails.Inc()
			hTranDur.Observe(time.Since(start))
			return err
		}
		tr.t = tn
		tr.steps++
		if settled != nil && settled(tr) {
			break
		}
	}
	mTranSteps.Add(tr.steps)
	hTranDur.Observe(time.Since(start))
	sp.Int("steps", tr.steps)
	sp.Int("halvings", as.halvings)
	sp.End()
	return nil
}

// Steps returns the number of accepted steps of the last Run.
func (tr *TranRunner) Steps() int64 { return tr.steps }

// Node returns the index of a named node for V, PrevV and EqV.
func (tr *TranRunner) Node(name string) int {
	i, ok := tr.c.nodeIndex[name]
	if !ok {
		panic(fmt.Sprintf("circuit: no node %q in transient result", name))
	}
	return i
}

// V returns node n's voltage after the latest accepted step.
func (tr *TranRunner) V(n int) float64 { return nodeV(tr.x, n) }

// PrevV returns node n's voltage before the latest accepted step.
func (tr *TranRunner) PrevV(n int) float64 { return nodeV(tr.prev, n) }

// EqV returns node n's voltage in the last converged Equilibrium.
func (tr *TranRunner) EqV(n int) float64 { return nodeV(tr.eq, n) }

// Equilibrium runs at most maxIter damped Newton iterations on the DC
// problem — capacitors open, sources at the current time — from the current
// state, and reports whether they converged; EqV then reads the solution.
// The iterations count toward circuit.newton.iterations, but an attempt
// that does not converge is a declined certificate, not a Newton failure.
func (tr *TranRunner) Equilibrium(maxIter int) bool {
	copy(tr.eq, tr.x)
	// A singular Jacobian declines the attempt like non-convergence does.
	its, ok, _ := tr.as.iterate(tr.eq, tr.t, 0, 1, nil, dampClampV, maxIter)
	mNewtonIters.Add(int64(its))
	return ok
}
