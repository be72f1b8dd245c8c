package num

import "math"

// Welford accumulates weighted running moments (West's update): mean and
// variance in one pass, numerically stable, with the effective sample size
// needed for confidence intervals over importance-weighted draws. The zero
// value is an empty accumulator.
//
// The result depends on the order of Add calls; parallel reducers must add
// samples in a canonical (e.g. sample-index) order to keep results
// bit-identical across schedules.
type Welford struct {
	Count int64   // number of observations
	SumW  float64 // Σw
	SumW2 float64 // Σw²
	M     float64 // weighted mean
	M2    float64 // Σw·(x−mean)² (scaled second central moment)
	MinV  float64 // smallest observed x
	MaxV  float64 // largest observed x
}

// Add folds in one observation of weight w (> 0).
func (a *Welford) Add(x, w float64) {
	if a.Count == 0 {
		a.MinV, a.MaxV = x, x
	} else {
		if x < a.MinV {
			a.MinV = x
		}
		if x > a.MaxV {
			a.MaxV = x
		}
	}
	a.Count++
	a.SumW += w
	a.SumW2 += w * w
	d := x - a.M
	a.M += (w / a.SumW) * d
	a.M2 += w * d * (x - a.M)
}

// Mean returns the weighted mean (NaN when empty).
func (a *Welford) Mean() float64 {
	if a.Count == 0 {
		return math.NaN()
	}
	return a.M
}

// Var returns the unbiased weighted sample variance (reliability weights):
// M2 / (Σw − Σw²/Σw). For unit weights this is the usual n−1 estimator. It
// returns 0 when fewer than two observations carry weight.
func (a *Welford) Var() float64 {
	if a.Count < 2 || a.SumW <= 0 {
		return 0
	}
	denom := a.SumW - a.SumW2/a.SumW
	if denom <= 0 {
		return 0
	}
	return a.M2 / denom
}

// Std returns the weighted sample standard deviation.
func (a *Welford) Std() float64 { return math.Sqrt(a.Var()) }

// ESS returns Kish's effective sample size (Σw)²/Σw² — the number of
// equally-weighted samples with the same estimator variance. Equal weights
// give ESS = Count.
func (a *Welford) ESS() float64 {
	if a.SumW2 <= 0 {
		return 0
	}
	return a.SumW * a.SumW / a.SumW2
}

// MuMinusKSigmaCI returns the delta-method confidence half-width on the
// μ − k·σ statistic at confidence quantile z (1.96 for 95%):
//
//	Var(μ̂ − k·σ̂) ≈ σ²/n_eff · (1 + k²/2)
//
// using Var(μ̂) = σ²/n, Var(σ̂) ≈ σ²/(2n) and Cov(μ̂, σ̂) = 0, all exact in
// the Gaussian limit the paper's μ−3σ yield metric assumes (DESIGN.md §12).
func (a *Welford) MuMinusKSigmaCI(k, z float64) float64 {
	ess := a.ESS()
	if ess < 2 {
		return math.Inf(1)
	}
	return z * a.Std() * math.Sqrt((1+k*k/2)/ess)
}

// WilsonCI returns the Wilson score interval [lo, hi] for a binomial
// proportion estimated as p from n effective trials at quantile z. Unlike
// the normal-approximation interval it stays inside [0, 1] and does not
// collapse to a point at p = 0 or 1 — exactly the regime of small fail
// fractions the yield constraint cares about.
func WilsonCI(p, n, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Acklam's rational approximations for the inverse normal CDF.
var invNormA = [6]float64{
	-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
	1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
}
var invNormB = [5]float64{
	-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
	6.680131188771972e+01, -1.328068155288572e+01,
}
var invNormC = [6]float64{
	-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
	-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
}
var invNormD = [4]float64{
	7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
	3.754408661907416e+00,
}

// InvNormCDF returns Φ⁻¹(p), the standard normal quantile, via Acklam's
// rational approximation refined with one Halley step against math.Erfc —
// accurate to full double precision over (0, 1). It returns ∓Inf at p = 0
// and p = 1 and NaN outside [0, 1].
func InvNormCDF(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((invNormC[0]*q+invNormC[1])*q+invNormC[2])*q+invNormC[3])*q+invNormC[4])*q + invNormC[5]) /
			((((invNormD[0]*q+invNormD[1])*q+invNormD[2])*q+invNormD[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((invNormA[0]*r+invNormA[1])*r+invNormA[2])*r+invNormA[3])*r+invNormA[4])*r + invNormA[5]) * q /
			(((((invNormB[0]*r+invNormB[1])*r+invNormB[2])*r+invNormB[3])*r+invNormB[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((invNormC[0]*q+invNormC[1])*q+invNormC[2])*q+invNormC[3])*q+invNormC[4])*q + invNormC[5]) /
			((((invNormD[0]*q+invNormD[1])*q+invNormD[2])*q+invNormD[3])*q + 1)
	}
	// One Halley refinement: e = Φ(x) − p, u = e·φ(x)⁻¹.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}
