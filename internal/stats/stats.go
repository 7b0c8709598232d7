// Package stats provides the small set of summary statistics the
// evaluation harness reports — means, quantiles, empirical CDFs, and
// proportions with Wilson confidence intervals — and the two paired tests
// the A/B benchmark script applies to runs of two commits.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for fewer than 2 values).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics. Input need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quartiles returns the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// convention of the repository benchmark's `bench compare`. The median
// equals Median's; the outer quartiles sit further out on small samples.
// Input need not be sorted; empty input yields zeros.
func Quartiles(xs []float64) [3]float64 {
	n := len(xs)
	if n == 0 {
		return [3]float64{}
	}
	d := make([]float64, n)
	copy(d, xs)
	sort.Float64s(d)
	if n < 2 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// CDFPoint is one point of an empirical distribution function.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples ≤ X
}

// CDF returns the empirical CDF of xs, one point per distinct value.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var out []CDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue // emit only the last occurrence of a value
		}
		out = append(out, CDFPoint{X: sorted[i], P: float64(i+1) / n})
	}
	return out
}

// Proportion is a binomial estimate with its Wilson 95% interval.
type Proportion struct {
	P        float64
	Lo, Hi   float64
	N        int
	Positive int
}

// NewProportion computes k successes out of n trials.
func NewProportion(k, n int) Proportion {
	if n == 0 {
		return Proportion{}
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	return Proportion{P: p, Lo: math.Max(0, center-half), Hi: math.Min(1, center+half), N: n, Positive: k}
}

// SignTest is the exact two-sided sign test on paired differences: under
// the null hypothesis each nonzero difference is positive or negative with
// probability ½. Zero differences (ties) are dropped. It returns the counts
// of positive and negative differences and the p-value, 1 when every
// difference is zero.
func SignTest(diffs []float64) (pos, neg int, p float64) {
	for _, d := range diffs {
		switch {
		case d > 0:
			pos++
		case d < 0:
			neg++
		}
	}
	n := pos + neg
	tail := 0.0 // P(X ≤ min(pos, neg)), X ~ Binomial(n, ½)
	c := 1.0    // C(n, i)
	for i := 0; i <= min(pos, neg); i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return pos, neg, math.Min(1, 2*tail/math.Exp2(float64(n)))
}

// WilcoxonSignedRank is the exact two-sided Wilcoxon signed-rank test on
// paired differences. Zero differences are dropped; tied magnitudes share
// their average rank, and the null distribution is computed for those
// ranks, so ties need no normal correction. It returns W+, the rank sum of
// the positive differences, and the p-value, 1 when every difference is
// zero. The exact distribution costs O(n³) for n nonzero differences,
// which is nothing at the tens of pairs a benchmark runs.
func WilcoxonSignedRank(diffs []float64) (wplus, p float64) {
	var mags []float64
	for _, d := range diffs {
		if d != 0 {
			mags = append(mags, math.Abs(d))
		}
	}
	n := len(mags)
	if n == 0 {
		return 0, 1
	}
	sorted := append([]float64(nil), mags...)
	sort.Float64s(sorted)
	// Doubled average ranks are integers: a run of equal magnitudes at
	// sorted positions i..j-1 (ranks i+1..j) gets rank (i+1+j)/2.
	rank2 := make(map[float64]int, n)
	for i := 0; i < n; {
		j := i
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		rank2[sorted[i]] = i + 1 + j
		i = j
	}
	// ways[s] counts the sign assignments whose doubled W+ is s.
	total := n * (n + 1)
	ways := make([]float64, total+1)
	ways[0] = 1
	w2 := 0
	for _, d := range diffs {
		if d == 0 {
			continue
		}
		r := rank2[math.Abs(d)]
		if d > 0 {
			w2 += r
		}
		for s := total; s >= r; s-- {
			ways[s] += ways[s-r]
		}
	}
	var lo, hi float64 // P(W+ ≤ observed), P(W+ ≥ observed), unnormalised
	for s, c := range ways {
		if s <= w2 {
			lo += c
		}
		if s >= w2 {
			hi += c
		}
	}
	return float64(w2) / 2, math.Min(1, 2*math.Min(lo, hi)/math.Exp2(float64(n)))
}
