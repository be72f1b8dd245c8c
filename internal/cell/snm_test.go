package cell

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sramco/internal/device"
	"sramco/internal/num"
)

// searchLinear is the interpolant SNM extraction used before num.Linear: a
// private copy of the table and a binary search per probe.
type searchLinear struct{ xs, ys []float64 }

func newSearchLinear(v *VTC) searchLinear {
	return searchLinear{xs: append([]float64(nil), v.X...), ys: append([]float64(nil), v.Y...)}
}

func (l searchLinear) Eval(x float64) float64 {
	i := min(max(sort.SearchFloat64s(l.xs, x)-1, 0), len(l.xs)-2)
	x0, x1 := l.xs[i], l.xs[i+1]
	y0, y1 := l.ys[i], l.ys[i+1]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// oracleFlip mirrors a VTC across the diagonal into freshly allocated
// storage, as the butterfly did before it kept its own buffers.
func oracleFlip(v *VTC) *VTC {
	n := len(v.X)
	fx := make([]float64, 0, n)
	fy := make([]float64, 0, n)
	for i := n - 1; i >= 0; i-- {
		x, y := v.Y[i], v.X[i]
		if len(fx) > 0 && x <= fx[len(fx)-1]+1e-9 {
			continue
		}
		fx = append(fx, x)
		fy = append(fy, y)
	}
	return &VTC{X: fx, Y: fy}
}

// oracleMaxSquare is the square search before the walk: up(x) re-evaluated
// on every probe, and every bracket bisected.
func oracleMaxSquare(up, low searchLinear, lo, hi float64) float64 {
	span := hi - lo
	best := 0.0
	const xSteps = 160
	for i := 0; i <= xSteps; i++ {
		x := lo + span*float64(i)/xSteps
		gap := func(s float64) float64 { return up.Eval(x) - s - low.Eval(x+s) }
		if gap(0) <= 0 {
			continue
		}
		prevS := 0.0
		const sSteps = 64
		for j := 1; j <= sSteps; j++ {
			s := span * float64(j) / sSteps
			if gap(s) <= 0 {
				root, err := num.Bisect(gap, prevS, s, 1e-7)
				if err == nil && root > best {
					best = root
				}
				break
			}
			prevS = s
		}
	}
	return best
}

// snmCase is one butterfly of the extraction tests: a hold or read
// butterfly of one flavor under one ΔVt draw.
type snmCase struct {
	flavor device.Flavor
	read   *ReadBias // nil: hold
	sigma  float64
	dvt    Variation
}

func (c snmCase) String() string {
	kind := "hold"
	if c.read != nil {
		kind = fmt.Sprintf("read(VDDC=%g,VSSC=%g)", c.read.VDDC, c.read.VSSC)
	}
	return fmt.Sprintf("%v %s σ=%gmV dvt=%.4f", c.flavor, kind, c.sigma*1e3, c.dvt)
}

// snmCases draws perDraw seeded ΔVt vectors per σ of 25 and 75 mV for each
// flavor, and pairs each with the hold butterfly and the nominal, VDDC-boost
// and negative-VSSC read biases.
func snmCases(seed int64, perSigma int) []snmCase {
	rng := rand.New(rand.NewSource(seed))
	reads := []ReadBias{
		NominalRead(vdd),
		{Vdd: vdd, VDDC: vdd + 0.1, VSSC: 0, VWL: vdd},
		{Vdd: vdd, VDDC: vdd, VSSC: -0.1, VWL: vdd},
	}
	var out []snmCase
	for _, fl := range []device.Flavor{device.LVT, device.HVT} {
		for _, sigma := range []float64{0.025, 0.075} {
			for k := 0; k < perSigma; k++ {
				var dvt Variation
				for i := range dvt {
					dvt[i] = rng.NormFloat64() * sigma
				}
				out = append(out, snmCase{flavor: fl, sigma: sigma, dvt: dvt})
				for r := range reads {
					out = append(out, snmCase{flavor: fl, read: &reads[r], sigma: sigma, dvt: dvt})
				}
			}
		}
	}
	return out
}

// butterflies sweeps each case's butterfly and returns deep copies, so the
// curves outlive the sweeps' buffers, together with copies of each case's
// side-1 VTC as swept, before the mirror.
func butterflies(t testing.TB, cases []snmCase) (bfs []Butterfly, side1 []*VTC) {
	t.Helper()
	sweeps := map[device.Flavor]*vtcSweeps{}
	for _, c := range cases {
		v := sweeps[c.flavor]
		if v == nil {
			v = newVTCSweeps(device.Default7nm(), c.flavor)
			sweeps[c.flavor] = v
		}
		var bf *Butterfly
		var err error
		if c.read == nil {
			bf, err = v.hold(c.dvt, vdd)
		} else {
			bf, err = v.read(c.dvt, *c.read)
		}
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		bfs = append(bfs, Butterfly{A: copyVTC(bf.A), B: copyVTC(bf.B)})
		side1 = append(side1, copyVTC(&VTC{X: v.xs, Y: v.ys[1]}))
	}
	return bfs, side1
}

func copyVTC(v *VTC) *VTC {
	return &VTC{X: slices.Clone(v.X), Y: slices.Clone(v.Y)}
}

// TestMaxSquareMatchesOracle requires each lobe of the walking square search
// to equal the oracle scan's bit for bit, and the butterfly's in-place
// mirror of side 1 to equal the allocating flip, over hold and read
// butterflies of both flavors at σ = 25 and 75 mV, under nominal and assist
// biases.
func TestMaxSquareMatchesOracle(t *testing.T) {
	cases := snmCases(18, 3)
	bfs, side1 := butterflies(t, cases)
	var nonzero int
	for k, c := range cases {
		bf := &bfs[k]
		flipped := oracleFlip(side1[k])
		if !slices.Equal(bf.B.X, flipped.X) || !slices.Equal(bf.B.Y, flipped.Y) {
			t.Fatalf("%v: mirrored branch B differs from the allocating flip", c)
		}
		fa, err := num.NewLinear(bf.A.X, bf.A.Y)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := num.NewLinear(bf.B.X, bf.B.Y)
		if err != nil {
			t.Fatal(err)
		}
		oa, ob := newSearchLinear(bf.A), newSearchLinear(bf.B)
		aLo, aHi := bf.A.X[0], bf.A.X[len(bf.A.X)-1]
		bLo, bHi := bf.B.X[0], bf.B.X[len(bf.B.X)-1]
		for lobe, p := range [2][2]float64{
			{maxSquare(&fa, &fb, aLo, aHi), oracleMaxSquare(oa, ob, aLo, aHi)},
			{maxSquare(&fb, &fa, bLo, bHi), oracleMaxSquare(ob, oa, bLo, bHi)},
		} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Errorf("%v lobe %d: maxSquare %.17g, oracle %.17g", c, lobe+1, p[0], p[1])
			}
			if p[0] > 0 {
				nonzero++
			}
		}
	}
	if nonzero < len(cases) {
		t.Errorf("only %d of %d lobes are nonzero; the cases do not exercise the bisection", nonzero, 2*len(cases))
	}
}

// TestButterflySNMNoAllocs pins SNM extraction to zero allocations.
func TestButterflySNMNoAllocs(t *testing.T) {
	bfs, _ := butterflies(t, snmCases(1, 1))
	k := 0
	var sink float64
	n := testing.AllocsPerRun(len(bfs), func() {
		snm, err := bfs[k%len(bfs)].SNM()
		if err != nil {
			t.Fatal(err)
		}
		sink += snm
		k++
	})
	if n != 0 {
		t.Errorf("Butterfly.SNM allocates %v times per call, want 0", n)
	}
}

// BenchmarkButterflySNM measures SNM extraction alone, the square search
// over both lobes, on a fixed cycle of Monte Carlo hold and read butterflies
// of both flavors (σ = 25 and 75 mV; run a multiple of 16 iterations to
// weigh every butterfly equally).
func BenchmarkButterflySNM(b *testing.B) {
	bfs, _ := butterflies(b, snmCases(7, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bfs[i%len(bfs)].SNM(); err != nil {
			b.Fatal(err)
		}
	}
}
