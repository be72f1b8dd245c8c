package num

import "fmt"

// sobolMaxDim is the number of dimensions this generator carries direction
// numbers for — the six per-transistor ΔVt dimensions of the 6T cell Monte
// Carlo are the only consumer.
const sobolMaxDim = 6

// sobolBits is the precision of one coordinate. 32 bits (≈2.3e-10 spacing)
// is far below the resolution at which Φ⁻¹ changes the yield statistics.
const sobolBits = 32

// Joe–Kuo "new-joe-kuo-6" primitive-polynomial parameters for dimensions
// 2..6 (dimension 1 is the van der Corput sequence in base 2).
var sobolParams = [sobolMaxDim - 1]struct {
	s uint   // polynomial degree
	a uint32 // polynomial coefficients (bits of a)
	m []uint32
}{
	{1, 0, []uint32{1}},
	{2, 1, []uint32{1, 3}},
	{3, 1, []uint32{1, 3, 1}},
	{3, 2, []uint32{1, 1, 1}},
	{4, 1, []uint32{1, 1, 3, 3}},
}

// Sobol is a digitally-shifted (scrambled) Sobol' low-discrepancy sequence
// with random point access: At(i) returns point i directly from the Gray
// code of the index, so parallel workers can evaluate disjoint index blocks
// without sharing sequential generator state — the property the Monte Carlo
// engine's deterministic block partitioning relies on.
type Sobol struct {
	dim   int
	v     [sobolMaxDim][sobolBits]uint32 // direction numbers, bit-reversed scale
	shift [sobolMaxDim]uint32            // per-dimension digital shift (scramble)
}

// NewSobol builds a dim-dimensional (1 ≤ dim ≤ 6) scrambled Sobol'
// generator. seed selects the digital shift: the same seed reproduces the
// same scrambled sequence, seed 0 is the unscrambled sequence.
func NewSobol(dim int, seed uint64) (*Sobol, error) {
	if dim < 1 || dim > sobolMaxDim {
		return nil, fmt.Errorf("num: Sobol supports 1..%d dimensions, got %d", sobolMaxDim, dim)
	}
	s := &Sobol{dim: dim}
	// Dimension 1: v_k = 2^(32−k−1) (van der Corput).
	for k := 0; k < sobolBits; k++ {
		s.v[0][k] = 1 << (sobolBits - 1 - k)
	}
	for d := 1; d < dim; d++ {
		p := sobolParams[d-1]
		deg := int(p.s)
		var m [sobolBits]uint32
		copy(m[:], p.m)
		// Recurrence m_k = 2^deg·m_{k−deg} ⊕ m_{k−deg} ⊕ Σ 2^i·a_i·m_{k−i}.
		for k := deg; k < sobolBits; k++ {
			mk := m[k-deg] ^ (m[k-deg] << deg)
			for i := 1; i < deg; i++ {
				if (p.a>>(deg-1-i))&1 == 1 {
					mk ^= m[k-i] << i
				}
			}
			m[k] = mk
		}
		for k := 0; k < sobolBits; k++ {
			s.v[d][k] = m[k] << (sobolBits - 1 - k)
		}
	}
	if seed != 0 {
		x := seed
		for d := 0; d < dim; d++ {
			// SplitMix64 stream: independent 32-bit digital shifts per axis.
			x += 0x9E3779B97F4A7C15
			z := x
			z ^= z >> 30
			z *= 0xBF58476D1CE4E5B9
			z ^= z >> 27
			z *= 0x94D049BB133111EB
			z ^= z >> 31
			s.shift[d] = uint32(z >> 32)
		}
	}
	return s, nil
}

// At fills u[0:dim] with point i (i ≥ 0) of the scrambled sequence. Every
// coordinate lies strictly inside (0, 1), so Φ⁻¹ of a coordinate is always
// finite.
func (s *Sobol) At(i int64, u []float64) {
	if i < 0 {
		panic("num: Sobol.At with negative index")
	}
	g := uint64(i) ^ (uint64(i) >> 1) // Gray code: x_i = ⊕ v_k over set bits
	for d := 0; d < s.dim; d++ {
		x := s.shift[d]
		for k, gg := 0, g; gg != 0 && k < sobolBits; k, gg = k+1, gg>>1 {
			if gg&1 == 1 {
				x ^= s.v[d][k]
			}
		}
		u[d] = (float64(x) + 0.5) / (1 << sobolBits)
	}
}
