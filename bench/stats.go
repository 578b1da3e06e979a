package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail percentile resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie above it. A false second result means the
// percentile is absent and must not be reported.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := max(int(math.Ceil(q*float64(n)))-1, 0)
	return s[i], n-1-i >= minBeyond
}

// okCount counts the true entries, as a float for rates and shares.
func okCount(ok []bool) float64 {
	n := 0
	for _, b := range ok {
		if b {
			n++
		}
	}
	return float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, the median and the third
// quartile of xs, computed like Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so the spreads this tool reports match
// those computed from the same values elsewhere.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
