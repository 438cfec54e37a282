package mining

import "math"

// WeightedMean returns the σ-weighted mean of u: m(u;σ) = Σσᵢuᵢ / Σσᵢ.
func WeightedMean(u, sigma []float64) float64 {
	if len(u) != len(sigma) {
		panic("mining: WeightedMean length mismatch")
	}
	num, den := 0.0, 0.0
	for i := range u {
		num += sigma[i] * u[i]
		den += sigma[i]
	}
	return ratio(num, den)
}

// WeightedCov returns the σ-weighted covariance of a and b:
// cov(a,b;σ) = Σσᵢ(aᵢ−m(a;σ))(bᵢ−m(b;σ)) / Σσᵢ.
func WeightedCov(a, b, sigma []float64) float64 {
	if len(a) != len(b) || len(a) != len(sigma) {
		panic("mining: WeightedCov length mismatch")
	}
	ma, mb := WeightedMean(a, sigma), WeightedMean(b, sigma)
	num, den := 0.0, 0.0
	for i := range a {
		num += sigma[i] * (a[i] - ma) * (b[i] - mb)
		den += sigma[i]
	}
	return ratio(num, den)
}

// WeightedPearson implements Eq. 1 of the paper: the Pearson correlation of
// two concept-space profiles under singular-value weights, so that stronger
// similarity concepts count more. It returns a value in [-1, 1]; 0 when
// either profile has zero weighted variance.
func WeightedPearson(a, b, sigma []float64) float64 {
	return correlation(WeightedCov(a, b, sigma), WeightedCov(a, a, sigma), WeightedCov(b, b, sigma))
}

// correlation turns a weighted covariance and the two weighted variances
// into Eq. 1's coefficient: 0 when either variance is not positive,
// otherwise cov/√(va·vb) kept strictly within [-1, 1]. Huge finite inputs
// can overflow both variances to +Inf, making the ratio Inf/Inf = NaN —
// which would slip through the clamps — so NaN degrades to the same "no
// signal" answer as zero variance. Pressure-scale data ([0, 100]) never
// gets near overflow.
func correlation(cov, va, vb float64) float64 {
	if va <= 0 || vb <= 0 {
		return 0
	}
	r := cov / math.Sqrt(va*vb)
	if r != r {
		return 0
	}
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r
}

// ratio is num/den with WeightedMean's and WeightedCov's zero-weight
// guard: 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Pearson is the classic unweighted correlation coefficient, retained for
// the ablation study that compares it against the weighted form.
func Pearson(a, b []float64) float64 {
	ones := make([]float64, len(a))
	for i := range ones {
		ones[i] = 1
	}
	return WeightedPearson(a, b, ones)
}

// CosineSimilarity returns the cosine of the angle between a and b, used by
// the pure-collaborative-filtering ablation baseline.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
