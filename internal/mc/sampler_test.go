package mc

import (
	"math"
	"math/rand"
	"testing"

	"sramco/internal/cell"
	"sramco/internal/device"
	"sramco/internal/num"
)

// normCDF is Φ, used to map drawn z values back into (0,1) for
// stratification checks.
func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

func TestParseSamplerRoundTrip(t *testing.T) {
	for s := SamplerMC; s < numSamplers; s++ {
		got, err := ParseSampler(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSampler(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := ParseSampler("halton"); err == nil {
		t.Error("ParseSampler accepted an unknown name")
	}
	if got := Sampler(99).String(); got != "Sampler(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

// TestSampleSeedDistinct guards the SplitMix64 seed derivation: within a run
// every sample must get a distinct PRNG seed, and — the bug the derivation
// replaced — two runs with different base seeds must not share any per-sample
// seeds (the old XOR mixing collided whole sample streams across runs).
func TestSampleSeedDistinct(t *testing.T) {
	const n = 4096
	seen := make(map[int64]string, 2*n)
	for _, base := range []int64{7, 7 ^ 1} { // adjacent seeds: worst case for XOR mixing
		for i := 0; i < n; i++ {
			s := sampleSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (base %d, i %d) and %s both map to %d", base, i, prev, s)
			}
			seen[s] = "earlier sample"
		}
	}
}

func TestPlanBlocks(t *testing.T) {
	for _, n := range []int{2, 3, 31, 32, 33, 64, 300, 301, 1024, 1025, 20000} {
		size, count := planBlocks(n)
		if size < 1 || size > 32 {
			t.Errorf("planBlocks(%d): size %d out of range", n, size)
		}
		if (count-1)*size >= n || count*size < n {
			t.Errorf("planBlocks(%d) = (%d, %d): blocks do not tile the samples", n, size, count)
		}
	}
}

// TestDrawDeterministic draws every sample twice through independent drawers
// and requires bit-identical ΔVt and weights, for each sampler.
func TestDrawDeterministic(t *testing.T) {
	for s := SamplerMC; s < numSamplers; s++ {
		cfg := Config{Flavor: device.HVT, N: 64, Seed: 9, Sampler: s, Tilt: 2}
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		d1, err := newDrawer(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		d2, _ := newDrawer(&cfg)
		for i := 0; i < cfg.N; i++ {
			var a, b Sample
			d1.draw(i, &a)
			d2.draw(i, &b)
			if a != b {
				t.Fatalf("%v: sample %d differs between identical drawers", s, i)
			}
		}
	}
}

// TestLHSStratifies checks the Latin-hypercube property: within one
// evaluation block, each dimension's draws occupy every equal-probability
// stratum exactly once (visible through Φ of the reconstructed z).
func TestLHSStratifies(t *testing.T) {
	cfg := Config{Flavor: device.HVT, N: 1024, Seed: 3, Sampler: SamplerLHS}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	d, err := newDrawer(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	bn := d.blockSize
	if bn != 32 {
		t.Fatalf("blockSize = %d, want 32 for N=1024", bn)
	}
	for dim := 0; dim < 6; dim++ {
		hit := make([]bool, bn)
		for j := 0; j < bn; j++ {
			var s Sample
			d.draw(j, &s)
			u := normCDF(s.DVt[dim] / cfg.SigmaVt)
			k := int(u * float64(bn))
			if k < 0 || k >= bn || hit[k] {
				t.Fatalf("dim %d: draw %d lands in stratum %d (u=%g): not a Latin hypercube", dim, j, k, u)
			}
			hit[k] = true
		}
	}
}

// TestSobolStratifies checks that the Sobol-driven ΔVt draws inherit the
// sequence's stratification: Φ of the first 64 draws fills all 64 bins in
// every dimension.
func TestSobolStratifies(t *testing.T) {
	cfg := Config{Flavor: device.HVT, N: 64, Seed: 11, Sampler: SamplerSobol}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	d, err := newDrawer(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Index shift: draw(i) consumes Sobol point i+1, so a full stratified
	// batch of 64 points spans draws 63..126 (points 64..127 share the
	// leading bits that define the 64-bin stratification).
	for dim := 0; dim < 6; dim++ {
		hit := make([]bool, 64)
		for i := 63; i < 127; i++ {
			var s Sample
			d.draw(i, &s)
			u := normCDF(s.DVt[dim] / cfg.SigmaVt)
			k := int(u * 64)
			if k < 0 || k >= 64 || hit[k] {
				t.Fatalf("dim %d: draw %d lands in occupied stratum %d", dim, i, k)
			}
			hit[k] = true
		}
	}
}

// TestTiltWeights cross-checks the importance tilt against an untilted drawer
// with the same seed: plain-MC z draws are identical, so the tilted ΔVt must
// be exactly τ× the untilted ones, with the exact density-ratio weight.
func TestTiltWeights(t *testing.T) {
	const tau = 3.0
	base := Config{Flavor: device.HVT, N: 32, Seed: 5}
	tilted := base
	tilted.Tilt = tau
	if err := base.normalize(); err != nil {
		t.Fatal(err)
	}
	if err := tilted.normalize(); err != nil {
		t.Fatal(err)
	}
	d0, _ := newDrawer(&base)
	d1, _ := newDrawer(&tilted)
	for i := 0; i < base.N; i++ {
		var s0, s1 Sample
		d0.draw(i, &s0)
		d1.draw(i, &s1)
		want := 1.0
		for tr := range s0.DVt {
			// τ·σ·z and τ·(σ·z) round differently; compare to the last ulp.
			if math.Abs(s1.DVt[tr]-tau*s0.DVt[tr]) > 1e-15*math.Abs(s0.DVt[tr]) {
				t.Fatalf("sample %d dim %d: tilted draw %g != τ·%g", i, tr, s1.DVt[tr], s0.DVt[tr])
			}
			z := s0.DVt[tr] / base.SigmaVt
			want *= tau * math.Exp(-(tau*tau-1)*z*z/2)
		}
		if math.Abs(s1.Weight-want) > 1e-12*math.Abs(want) {
			t.Fatalf("sample %d: weight %g, want %g", i, s1.Weight, want)
		}
		if s0.Weight != 1 {
			t.Fatalf("untilted sample %d has weight %g", i, s0.Weight)
		}
	}
}

// oracleDraw is the draw before drawers reused their PRNG source: a fresh
// rand.New(rand.NewSource(sampleSeed(seed, i))) per sample, and for LHS a
// fresh source and Perm per (block, dimension) on every draw. sob is a Sobol
// generator built for cfg.Seed, or nil for the other samplers.
func oracleDraw(cfg *Config, sob *num.Sobol, i int, s *Sample) {
	rng := rand.New(rand.NewSource(sampleSeed(cfg.Seed, i)))
	var z [cell.NumTransistors]float64
	switch cfg.Sampler {
	case SamplerSobol:
		var u [cell.NumTransistors]float64
		sob.At(int64(i)+1, u[:])
		for t := range z {
			z[t] = num.InvNormCDF(u[t])
		}
	case SamplerLHS:
		blockSize, _ := planBlocks(cfg.N)
		b, j := i/blockSize, i%blockSize
		bn := blockSize
		if rem := cfg.N - b*blockSize; rem < bn {
			bn = rem
		}
		for t := range z {
			perm := rand.New(rand.NewSource(lhsSeed(cfg.Seed, b, t))).Perm(bn)
			jit := rng.Float64()
			u := (float64(perm[j]) + jit) / float64(bn)
			if u <= 0 {
				u = 0.5 / float64(bn)
			}
			z[t] = num.InvNormCDF(u)
		}
	default:
		for t := range z {
			z[t] = rng.NormFloat64()
		}
	}
	tau := cfg.Tilt
	w := 1.0
	for t := range z {
		s.DVt[t] = tau * cfg.SigmaVt * z[t]
		if tau != 1 {
			w *= tau * math.Exp(-(tau*tau-1)*z[t]*z[t]/2)
		}
	}
	s.Weight = w
}

// TestDrawMatchesOracle requires one drawer, as one worker holds it, to
// reproduce the oracle's ΔVt and weights bit for bit for every sampler,
// with and without tilt, at N = 7, 96 and 1000 (single-sample blocks, full
// 3-sample and 32-sample blocks, and a short last block), drawing the
// indices in shuffled order so that its cached LHS block changes on
// almost every draw.
func TestDrawMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for s := SamplerMC; s < numSamplers; s++ {
		for _, tilt := range []float64{1, 2.5} {
			for _, n := range []int{7, 96, 1000} {
				cfg := Config{Flavor: device.HVT, N: n, Seed: int64(n) + 3, Sampler: s, Tilt: tilt}
				if err := cfg.normalize(); err != nil {
					t.Fatal(err)
				}
				var sob *num.Sobol
				if s == SamplerSobol {
					var err error
					if sob, err = num.NewSobol(int(cell.NumTransistors), uint64(cfg.Seed)); err != nil {
						t.Fatal(err)
					}
				}
				d, err := newDrawer(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				d = d.fork()
				for _, i := range rng.Perm(n) {
					var got, want Sample
					d.draw(i, &got)
					oracleDraw(&cfg, sob, i, &want)
					if got.DVt != want.DVt || math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
						t.Fatalf("%v tilt %g N %d sample %d: drew %v w=%v, oracle %v w=%v",
							s, tilt, n, i, got.DVt, got.Weight, want.DVt, want.Weight)
					}
				}
			}
		}
	}
}

// TestDrawNoAllocs pins one draw of each sampler to zero allocations. LHS is
// measured on draws after the first of their block, which computes the
// block's permutations into the drawer's own buffers.
func TestDrawNoAllocs(t *testing.T) {
	for s := SamplerMC; s < numSamplers; s++ {
		cfg := Config{Flavor: device.HVT, N: 1024, Seed: 9, Sampler: s, Tilt: 2}
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		d, err := newDrawer(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun draws once more than it counts: samples 1 to 31, all
		// in block 0 of 32.
		var smp Sample
		d.draw(0, &smp)
		i := 0
		if n := testing.AllocsPerRun(d.blockSize-2, func() {
			i++
			d.draw(i, &smp)
		}); n != 0 {
			t.Errorf("%v: a draw allocates %v times, want 0", s, n)
		}
	}
}

// TestSampleMinNoAllocs pins Sample.Min to zero allocations: it runs inside
// the per-sample observability hot path and the FailFraction loop.
func TestSampleMinNoAllocs(t *testing.T) {
	s := Sample{HSNM: 0.2, RSNM: math.NaN(), WM: 0.1}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink = s.Min() }); n != 0 {
		t.Errorf("Sample.Min allocates %v times per call, want 0", n)
	}
	_ = sink
}
