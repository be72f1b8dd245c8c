package num

import (
	"fmt"
	"math"
	"sort"
)

// Interp1D interpolates tabulated (x, y) samples. X must be strictly
// increasing.
type Interp1D interface {
	Eval(x float64) float64
	Domain() (lo, hi float64)
}

// Linear is a piecewise-linear interpolant over tables the caller owns. It
// validates them with NewPCHIP's checks but does not copy them, so the
// caller must leave them unchanged while the Linear is in use. Each segment
// search starts at the previous probe's segment, so probes that move by a
// few knots cost amortized O(1) instead of a binary search. Evaluation
// beyond the domain extrapolates linearly along the boundary segments.
//
// For every non-NaN x the walk lands on the segment sort.SearchFloat64s
// picks — the first i with x ≤ xs[i+1], clamped to [0, len(xs)−2] — and
// applies the same formula, so values do not depend on the probe order.
// A Linear is not safe for concurrent use.
type Linear struct {
	xs, ys []float64
	seg    int // segment of the previous probe
}

// NewLinear returns a Linear over strictly increasing xs and finite ys.
func NewLinear(xs, ys []float64) (Linear, error) {
	if err := checkTable(xs, ys); err != nil {
		return Linear{}, err
	}
	return Linear{xs: xs, ys: ys}, nil
}

// Eval returns the interpolant at x.
func (l *Linear) Eval(x float64) float64 {
	xs, i := l.xs, l.seg
	for i > 0 && x <= xs[i] {
		i--
	}
	for i < len(xs)-2 && xs[i+1] < x {
		i++
	}
	l.seg = i
	x0, x1 := xs[i], xs[i+1]
	y0, y1 := l.ys[i], l.ys[i+1]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// pchip is a monotone piecewise-cubic Hermite interpolant
// (Fritsch–Carlson). It never overshoots the data, which matters when
// interpolating characterized delays and currents that must stay positive.
type pchip struct {
	xs, ys, ds []float64
}

// NewPCHIP builds a monotone cubic interpolant over strictly increasing xs.
// Evaluation outside the domain clamps x to the domain boundary.
func NewPCHIP(xs, ys []float64) (Interp1D, error) {
	if err := checkTable(xs, ys); err != nil {
		return nil, err
	}
	n := len(xs)
	p := &pchip{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
		ds: make([]float64, n),
	}
	if n == 2 {
		d := (ys[1] - ys[0]) / (xs[1] - xs[0])
		p.ds[0], p.ds[1] = d, d
		return p, nil
	}
	h := make([]float64, n-1)
	delta := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		h[i] = xs[i+1] - xs[i]
		delta[i] = (ys[i+1] - ys[i]) / h[i]
	}
	for i := 1; i < n-1; i++ {
		if delta[i-1]*delta[i] <= 0 {
			p.ds[i] = 0
			continue
		}
		w1 := 2*h[i] + h[i-1]
		w2 := h[i] + 2*h[i-1]
		p.ds[i] = (w1 + w2) / (w1/delta[i-1] + w2/delta[i])
	}
	p.ds[0] = endpointSlope(h[0], h[1], delta[0], delta[1])
	p.ds[n-1] = endpointSlope(h[n-2], h[n-3], delta[n-2], delta[n-3])
	return p, nil
}

// endpointSlope is the Fritsch–Carlson one-sided three-point estimate with
// monotonicity clipping.
func endpointSlope(h0, h1, d0, d1 float64) float64 {
	d := ((2*h0+h1)*d0 - h0*d1) / (h0 + h1)
	if d*d0 <= 0 {
		return 0
	}
	if d0*d1 <= 0 && math.Abs(d) > 3*math.Abs(d0) {
		return 3 * d0
	}
	return d
}

func (p *pchip) Domain() (float64, float64) { return p.xs[0], p.xs[len(p.xs)-1] }

func (p *pchip) Eval(x float64) float64 {
	if x <= p.xs[0] {
		return p.ys[0]
	}
	if x >= p.xs[len(p.xs)-1] {
		return p.ys[len(p.ys)-1]
	}
	i := segIndex(p.xs, x)
	h := p.xs[i+1] - p.xs[i]
	t := (x - p.xs[i]) / h
	h00 := (1 + 2*t) * (1 - t) * (1 - t)
	h10 := t * (1 - t) * (1 - t)
	h01 := t * t * (3 - 2*t)
	h11 := t * t * (t - 1)
	return h00*p.ys[i] + h10*h*p.ds[i] + h01*p.ys[i+1] + h11*h*p.ds[i+1]
}

// segIndex returns the index i of the interval [xs[i], xs[i+1]] containing x,
// clamped to the valid range for extrapolation.
func segIndex(xs []float64, x float64) int {
	i := sort.SearchFloat64s(xs, x) - 1
	if i < 0 {
		i = 0
	}
	if i > len(xs)-2 {
		i = len(xs) - 2
	}
	return i
}

func checkTable(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("num: interp table length mismatch: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return fmt.Errorf("num: interp table needs ≥2 points, got %d", len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if !(xs[i] > xs[i-1]) {
			return fmt.Errorf("num: interp xs not strictly increasing at index %d (%g after %g)", i, xs[i], xs[i-1])
		}
	}
	for i, v := range ys {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("num: interp ys[%d] is not finite: %g", i, v)
		}
	}
	return nil
}

// Linspace returns n evenly spaced samples from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("num: Linspace needs n ≥ 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
