package main

import (
	"math"
	"sort"
)

// ratioOfSums returns Σnum / Σden: a throughput over many repeats weighted
// by their durations, so one short, noisy repeat cannot swing it the way it
// swings a mean of per-repeat rates.
func ratioOfSums(num, den []float64) float64 {
	var n, d float64
	for i := range num {
		n += num[i]
		d += den[i]
	}
	if d == 0 {
		return math.NaN()
	}
	return n / d
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones a reader
// computes from the recorded samples. Fewer than two values return that
// value (or NaN) for all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], median(s), q[2]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// pairMedian returns the median over i of f(a[i], b[i]): a paired
// comparison, where each pair ran back to back so host drift between pairs
// cancels inside f.
func pairMedian(a, b []float64, f func(a, b float64) float64) float64 {
	n := min(len(a), len(b))
	v := make([]float64, n)
	for i := range v {
		v[i] = f(a[i], b[i])
	}
	return median(v)
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(r, len(s)-1))]
}
