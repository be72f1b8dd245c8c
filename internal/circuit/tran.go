package circuit

import "fmt"

// TranResult holds a transient waveform set.
type TranResult struct {
	Times []float64
	names map[string]int
	volts [][]float64 // volts[i] is the voltage trace of node index i (incl. ground at 0)
}

// V returns the full voltage trace of a node.
func (r *TranResult) V(node string) []float64 {
	i, ok := r.names[node]
	if !ok {
		panic(fmt.Sprintf("circuit: no node %q in transient result", node))
	}
	return r.volts[i]
}

// AtTime returns the voltage of a node at time t by linear interpolation
// between stored steps, clamping outside the simulated interval.
func (r *TranResult) AtTime(node string, t float64) float64 {
	v := r.V(node)
	ts := r.Times
	if t <= ts[0] {
		return v[0]
	}
	if t >= ts[len(ts)-1] {
		return v[len(v)-1]
	}
	// Binary search for the surrounding interval.
	lo, hi := 0, len(ts)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ts[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (t - ts[lo]) / (ts[hi] - ts[lo])
	return v[lo] + frac*(v[hi]-v[lo])
}

// Final returns the last value of a node's trace.
func (r *TranResult) Final(node string) float64 {
	v := r.V(node)
	return v[len(v)-1]
}

// TranOpts configures a transient analysis.
type TranOpts struct {
	TStop float64 // end time (s); required
	DT    float64 // base step (s); required
	// UIC skips the initial operating-point solve and starts from the
	// SetIC values directly (nodes without ICs start at 0).
	UIC bool
}

// Transient runs a backward-Euler transient analysis and records every
// node's waveform. Each step solves the nonlinear companion system with the
// robust Newton strategy; on failure the step is recursively halved (up to
// 12 levels) before giving up. It is a TranRunner run whose observer records
// each accepted step and never settles.
func (c *Circuit) Transient(opts TranOpts) (*TranResult, error) {
	res := &TranResult{names: make(map[string]int, len(c.nodeNames)), volts: make([][]float64, len(c.nodeNames))}
	for i, name := range c.nodeNames {
		res.names[name] = i
	}
	record := func(t float64, x []float64) {
		res.Times = append(res.Times, t)
		for n := range res.volts {
			res.volts[n] = append(res.volts[n], nodeV(x, n))
		}
	}
	tr := c.NewTranRunner()
	err := tr.Run(opts, func(tr *TranRunner) bool {
		if tr.steps == 1 {
			record(0, tr.prev)
		}
		record(tr.t, tr.x)
		return false
	})
	if err != nil {
		return nil, err
	}
	if tr.steps == 0 {
		record(0, tr.x)
	}
	return res, nil
}

// step advances one (possibly subdivided) time step from state x at time t
// into out, which must not alias x, and returns the new time.
func (c *Circuit) step(as *assembler, x []float64, t, dt float64, depth int, out []float64) (float64, error) {
	tc := tranCtx{dt: dt, xprev: x}
	copy(out, x)
	err := as.newton(out, t+dt, 0, 1, &tc)
	if err == nil {
		return t + dt, nil
	}
	if depth >= 12 {
		return 0, fmt.Errorf("circuit: transient step at t=%g failed after 12 halvings: %w", t, err)
	}
	mTranHalvings.Inc()
	as.halvings++
	half := dt / 2
	mid := as.halfBuf(depth)
	tm, err := c.step(as, x, t, half, depth+1, mid)
	if err != nil {
		return 0, err
	}
	return c.step(as, mid, tm, half, depth+1, out)
}
