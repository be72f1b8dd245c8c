package circuit

import (
	"fmt"
	"sort"
)

// Waveform is a time-dependent source value. DC analyses evaluate waveforms
// at t = 0.
type Waveform interface {
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At returns the constant value regardless of time.
func (d DC) At(float64) float64 { return float64(d) }

// Level is a constant waveform that its owner moves in place. A source
// installed once with a *Level is re-biased by assigning V, which allocates
// nothing, where SetV with a fresh DC boxes each new value.
type Level struct{ V float64 }

// At returns the current level regardless of time.
func (l *Level) At(float64) float64 { return l.V }

// PWLPoint is one breakpoint of a piecewise-linear waveform.
type PWLPoint struct {
	T float64 // time (s)
	V float64 // value at T
}

// PWL is a piecewise-linear waveform. Before the first point it holds the
// first value; after the last point it holds the last value.
type PWL struct {
	pts []PWLPoint
}

// NewPWL builds a piecewise-linear waveform. Points must be in
// nondecreasing time order.
func NewPWL(pts ...PWLPoint) *PWL {
	if len(pts) == 0 {
		panic("circuit: PWL needs at least one point")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			panic(fmt.Sprintf("circuit: PWL times not sorted at index %d", i))
		}
	}
	return &PWL{pts: append([]PWLPoint(nil), pts...)}
}

// At evaluates the waveform at time t.
func (p *PWL) At(t float64) float64 {
	pts := p.pts
	if t <= pts[0].T {
		return pts[0].V
	}
	last := pts[len(pts)-1]
	if t >= last.T {
		return last.V
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T > t }) - 1
	a, b := pts[i], pts[i+1]
	if b.T == a.T {
		return b.V
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.V + frac*(b.V-a.V)
}

// Step returns a waveform that transitions linearly from v0 to v1 starting
// at t0 over rise seconds.
func Step(v0, v1, t0, rise float64) *PWL {
	return NewPWL(PWLPoint{0, v0}, PWLPoint{t0, v0}, PWLPoint{t0 + rise, v1})
}
