package mc

import (
	"fmt"
	"math"
	"math/rand"

	"sramco/internal/cell"
	"sramco/internal/num"
)

// Sampler selects how the per-transistor ΔVt draws are generated.
type Sampler int

const (
	// SamplerMC draws independent Gaussians per sample (plain Monte Carlo).
	SamplerMC Sampler = iota
	// SamplerSobol maps a scrambled Sobol' low-discrepancy point through
	// Φ⁻¹ per dimension: the empirical CDF converges ~N⁻¹ instead of
	// ~N^(−1/2), tightening μ and σ estimates at equal sample count.
	SamplerSobol
	// SamplerLHS uses Latin-hypercube stratification within each evaluation
	// block: every block of B samples places exactly one draw in each of the
	// B equal-probability strata per dimension.
	SamplerLHS
	numSamplers
)

var samplerNames = [numSamplers]string{"mc", "sobol", "lhs"}

func (s Sampler) String() string {
	if s < 0 || s >= numSamplers {
		return fmt.Sprintf("Sampler(%d)", int(s))
	}
	return samplerNames[s]
}

// ParseSampler parses a sampler name ("mc", "sobol", "lhs").
func ParseSampler(s string) (Sampler, error) {
	for i, n := range samplerNames {
		if s == n {
			return Sampler(i), nil
		}
	}
	return 0, fmt.Errorf("mc: unknown sampler %q (want mc, sobol, or lhs)", s)
}

// sampleSeed derives the PRNG seed of sample i from the run seed via the
// SplitMix64 finalizer. The finalizer is a bijection over the mixed state
// seed + (i+1)·golden, so within a run every sample gets a distinct seed,
// and its avalanche breaks the across-seed correlations the previous
// XOR-derivation had (seedA ^ f(i) == seedB ^ f(j) collided whole sample
// streams between runs). This intentionally changes the drawn ΔVt sequences
// relative to earlier releases; fixed-seed runs remain fully deterministic.
func sampleSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// lhsSeed derives the permutation seed of one (block, dimension) stratum.
func lhsSeed(seed int64, block, dim int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(block+1)*0xBF58476D1CE4E5B9 + uint64(dim+1)*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// planBlocks partitions n samples into contiguous index blocks. The plan
// depends only on n — never on worker count — so block boundaries, LHS
// strata, and streaming checkpoints are identical for any GOMAXPROCS.
// Small runs get single-sample blocks (full parallelism); large runs cap at
// 32-sample blocks.
func planBlocks(n int) (size, count int) {
	size = (n + 31) / 32
	if size > 32 {
		size = 32
	}
	count = (n + size - 1) / size
	return size, count
}

// drawer generates the ΔVt vector and importance weight of a sample from its
// index alone: a draw depends only on (seed, i), never on the samples drawn
// before it. A drawer reuses one PRNG source, re-seeded for every sample,
// and keeps the LHS permutations of the block it drew from last, so it is
// not safe for concurrent use: the Monte Carlo engine gives each worker its
// own fork, and the forks share the read-only Sobol generator.
type drawer struct {
	cfg       *Config
	sob       *num.Sobol
	blockSize int

	rng      *rand.Rand
	lhsBlock int                        // block whose permutations perm holds; −1 for none
	perm     [cell.NumTransistors][]int // per dimension, blockSize long
}

func newDrawer(cfg *Config) (*drawer, error) {
	d := &drawer{cfg: cfg}
	d.blockSize, _ = planBlocks(cfg.N)
	if cfg.Sampler == SamplerSobol {
		sob, err := num.NewSobol(int(cell.NumTransistors), uint64(cfg.Seed))
		if err != nil {
			return nil, err
		}
		d.sob = sob
	}
	return d.fork(), nil
}

// fork returns a drawer with the same configuration and Sobol generator and
// its own PRNG source and LHS permutations.
func (d *drawer) fork() *drawer {
	f := &drawer{cfg: d.cfg, sob: d.sob, blockSize: d.blockSize, lhsBlock: -1}
	f.rng = rand.New(rand.NewSource(0))
	if d.cfg.Sampler == SamplerLHS {
		for t := range f.perm {
			f.perm[t] = make([]int, d.blockSize)
		}
	}
	return f
}

// draw fills s.DVt and s.Weight for sample i. All draws depend only on
// (seed, i): x = τ·σ·z with z standard normal under the chosen sequence, and
// w = Π_t τ·exp(−(τ²−1)·z_t²/2) the exact density ratio N(0,σ²)/N(0,(τσ)²)
// at x (DESIGN.md §12), so weighted averages stay unbiased under the tilt.
// Plain Monte Carlo and the LHS jitter read the stream of
// rand.NewSource(sampleSeed(seed, i)), and the LHS strata the permutation
// rand.New(rand.NewSource(lhsSeed(seed, b, t))).Perm(bn) of block b.
// Re-seeding the reused source restarts exactly that stream (DESIGN.md
// §12.2).
func (d *drawer) draw(i int, s *Sample) {
	cfg := d.cfg
	var z [cell.NumTransistors]float64
	switch cfg.Sampler {
	case SamplerSobol:
		var u [cell.NumTransistors]float64
		// Index 1-based: point 0 of the unscrambled sequence sits half an ulp
		// from the origin, which Φ⁻¹ would turn into a ~−6.3σ outlier draw.
		d.sob.At(int64(i)+1, u[:])
		for t := range z {
			z[t] = num.InvNormCDF(u[t])
		}
	case SamplerLHS:
		b, j := i/d.blockSize, i%d.blockSize
		bn := min(d.blockSize, cfg.N-b*d.blockSize)
		if b != d.lhsBlock {
			for t := range d.perm {
				d.permute(lhsSeed(cfg.Seed, b, t), d.perm[t][:bn])
			}
			d.lhsBlock = b
		}
		d.rng.Seed(sampleSeed(cfg.Seed, i))
		for t := range z {
			jit := d.rng.Float64()
			u := (float64(d.perm[t][j]) + jit) / float64(bn)
			if u <= 0 { // jit can be exactly 0; keep Φ⁻¹ finite
				u = 0.5 / float64(bn)
			}
			z[t] = num.InvNormCDF(u)
		}
	default:
		d.rng.Seed(sampleSeed(cfg.Seed, i))
		for t := range z {
			z[t] = d.rng.NormFloat64()
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

// permute fills p with rand.New(rand.NewSource(seed)).Perm(len(p)) on the
// drawer's reused source: Perm's exact loop, its first Intn(1) included.
func (d *drawer) permute(seed int64, p []int) {
	d.rng.Seed(seed)
	for i := range p {
		j := d.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}
