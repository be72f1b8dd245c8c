package num

import (
	"math"
	"math/rand"
	"testing"
)

// linear1D is the copying, binary-searching piecewise-linear interpolant
// Linear replaced: the oracle its walk is checked against.
type linear1D struct {
	xs, ys []float64
}

func newLinear1D(xs, ys []float64) (*linear1D, error) {
	if err := checkTable(xs, ys); err != nil {
		return nil, err
	}
	return &linear1D{xs: append([]float64(nil), xs...), ys: append([]float64(nil), ys...)}, nil
}

func (l *linear1D) Eval(x float64) float64 {
	i := segIndex(l.xs, x)
	x0, x1 := l.xs[i], l.xs[i+1]
	y0, y1 := l.ys[i], l.ys[i+1]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// decodeLinearCase turns fuzz bytes into a table and a probe sequence. The
// first byte sets the knot count (2–17) and the next two the first knot and
// the spacing scale (2⁻⁵⁶ to 2⁷); each knot then takes a value byte and,
// after the first, a spacing byte. Every remaining byte is one probe: on a
// knot, inside the domain, or strictly left or right of it, so the sequence
// jumps back and forth. A spacing below the knot's ulp leaves the table not
// strictly increasing, which both constructors must reject alike.
func decodeLinearCase(data []byte) (xs, ys, probes []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next()%16)
	x := float64(int8(next())) / 4
	scale := math.Ldexp(1, int(next()%64)-56)
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		if i > 0 {
			x += float64(1+next()%64) * scale
		}
		xs[i], ys[i] = x, float64(int8(next()))/10
	}
	lo, hi := xs[0], xs[n-1]
	span := hi - lo
	for _, b := range data {
		k := float64(b & 63)
		switch b >> 6 {
		case 0:
			probes = append(probes, xs[int(b&63)%n])
		case 1:
			probes = append(probes, lo+span*k/63)
		case 2:
			probes = append(probes, math.Nextafter(lo, math.Inf(-1))-span*k/16)
		default:
			probes = append(probes, math.Nextafter(hi, math.Inf(1))+span*k/16)
		}
	}
	return xs, ys, probes
}

// checkLinearMatchesOracle evaluates one Linear over the probe sequence in
// order and requires every value to equal the oracle's bit for bit; both
// constructors must accept or reject the table alike.
func checkLinearMatchesOracle(t *testing.T, xs, ys, probes []float64) {
	t.Helper()
	want, errWant := newLinear1D(xs, ys)
	got, errGot := NewLinear(xs, ys)
	if (errWant == nil) != (errGot == nil) {
		t.Fatalf("table %v: oracle error %v, Linear error %v", xs, errWant, errGot)
	}
	if errWant != nil {
		return
	}
	for k, x := range probes {
		if g, w := got.Eval(x), want.Eval(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("probe %d x=%g over %v: Linear %g, oracle %g", k, x, xs, g, w)
		}
	}
}

// TestLinearMatchesOracle walks random tables with random probe sequences
// and with the monotone sweeps the SNM square search makes.
func TestLinearMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for c := 0; c < 2000; c++ {
		data := make([]byte, 3+2*17+rng.Intn(64))
		rng.Read(data)
		xs, ys, probes := decodeLinearCase(data)
		checkLinearMatchesOracle(t, xs, ys, probes)
	}
	xs := Linspace(0, 0.45, 181)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.45 / (1 + math.Exp((x-0.2)/0.02))
	}
	var probes []float64
	for i := 0; i <= 160; i++ {
		x := 0.45 * float64(i) / 160
		for j := 0; j <= 64; j++ {
			probes = append(probes, x+0.45*float64(j)/64)
		}
	}
	checkLinearMatchesOracle(t, xs, ys, probes)
}

// FuzzLinearMatchesOracle fuzzes the table and probe decoding of
// TestLinearMatchesOracle, seeded by the corpus under
// testdata/fuzz/FuzzLinearMatchesOracle.
func FuzzLinearMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		xs, ys, probes := decodeLinearCase(data)
		checkLinearMatchesOracle(t, xs, ys, probes)
	})
}
