package circuit

import (
	"fmt"
	"math"
)

// Edge selects a crossing direction for CrossTime and Watch.
type Edge int

const (
	EitherEdge Edge = iota
	RisingEdge
	FallingEdge
)

// crossAt is the crossing rule every crossing search applies to one step,
// over which a value moves from a at time t0 to b at t1: the step crosses
// level rising when a < level ≤ b and falling when a > level ≥ b, at the
// time linear interpolation between the two ends puts it.
func crossAt(a, b, level float64, edge Edge, t0, t1 float64) (float64, bool) {
	rising := a < level && b >= level
	falling := a > level && b <= level
	hit := (edge == EitherEdge && (rising || falling)) ||
		(edge == RisingEdge && rising) || (edge == FallingEdge && falling)
	if !hit {
		return 0, false
	}
	frac := (level - a) / (b - a)
	return t0 + frac*(t1-t0), true
}

func errNoCross(node string, level, tMin float64) error {
	return fmt.Errorf("circuit: node %q never crosses %g after %g", node, level, tMin)
}

// CrossTime returns the first time after tMin at which the node crosses
// level in the given direction, or an error if it never does: the first
// recorded step that ends at or after tMin and crosses by crossAt's rule.
func (r *TranResult) CrossTime(node string, level float64, edge Edge, tMin float64) (float64, error) {
	v := r.V(node)
	for i := 1; i < len(v); i++ {
		if r.Times[i] < tMin {
			continue
		}
		if t, ok := crossAt(v[i-1], v[i], level, edge, r.Times[i-1], r.Times[i]); ok {
			return t, nil
		}
	}
	return 0, errNoCross(node, level, tMin)
}

// A Watcher finds a crossing while a TranRunner runs, with no waveform
// recorded: the first accepted step that ends at or after TMin and over
// which a node's voltage, or the difference of two nodes' voltages, crosses
// a level in a given direction. It applies CrossTime's rule to each step as
// the run accepts it, so on the same run both give the same time bit for
// bit. A Certificate feeds it with Observe after every step, from the
// first; a Watcher serves one run.
type Watcher struct {
	TMin  float64 // steps ending before TMin do not count, as in CrossTime
	At    float64 // the crossing time, once Found
	Found bool

	name  string
	a, b  int // the watched value is V(a) − V(b); b is ground for one node
	level float64
	edge  Edge
	t0    float64 // start of the latest step: the end of the one before
	hit   bool    // the latest step crossed, at hitAt, but ended before TMin
	hitAt float64
}

// Watch returns a watcher of node a's voltage crossing level in the given
// direction, or of V(a) − V(b) when b is not Ground, searched from time 0.
func (tr *TranRunner) Watch(a, b string, level float64, edge Edge) *Watcher {
	name := a
	if b != Ground {
		name = a + "-" + b
	}
	return &Watcher{name: name, a: tr.Node(a), b: tr.Node(b), level: level, edge: edge}
}

// Observe examines the run's latest accepted step and reports whether the
// crossing has been found. TMin may be lowered during the run, as Chain
// does. The watcher remembers whether the last step it examined crossed, so
// it still agrees with CrossTime if the lowered TMin lies after that step's
// start; steps before it are not examined again.
func (w *Watcher) Observe(tr *TranRunner) bool {
	if w.Found {
		return true
	}
	if w.hit && w.t0 >= w.TMin {
		w.At, w.Found = w.hitAt, true
		return true
	}
	v0 := nodeV(tr.prev, w.a) - nodeV(tr.prev, w.b)
	v1 := nodeV(tr.x, w.a) - nodeV(tr.x, w.b)
	w.hitAt, w.hit = crossAt(v0, v1, w.level, w.edge, w.t0, tr.t)
	w.t0 = tr.t
	if w.hit && tr.t >= w.TMin {
		w.At, w.Found = w.hitAt, true
	}
	return w.Found
}

// Err returns nil once the crossing is found and CrossTime's error for it
// otherwise.
func (w *Watcher) Err() error {
	if w.Found {
		return nil
	}
	return errNoCross(w.name, w.level, w.TMin)
}

// Chain returns a certificate that feeds the watchers after every step and
// settles once the last one is found. Each watcher after the first searches
// from its predecessor's crossing time, as CrossTime calls that each take
// the previous result as tMin do: its TMin is +Inf until the predecessor is
// found, and that crossing time from then on. That time lies in the step
// just observed, which meets Observe's condition, or, when the predecessor
// was itself found by a lowered TMin, in the step before; the condition
// then fails only if the crossing time rounds onto that step's start.
func Chain(ws ...*Watcher) Certificate {
	for _, w := range ws[1:] {
		w.TMin = math.Inf(1)
	}
	return func(tr *TranRunner) bool {
		for i, w := range ws {
			if i > 0 && ws[i-1].Found {
				w.TMin = ws[i-1].At
			}
			w.Observe(tr)
		}
		return ws[len(ws)-1].Found
	}
}
