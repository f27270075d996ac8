package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// A p99 over 300 samples rests on three values and moves with every run;
// with ten beyond it the estimate is worth comparing.
const minTail = 10

// nearestRank returns the nearest-rank q-quantile of an ascending sample.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// tolerance keeps 0.99*1000 from rounding up to rank 991.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(k, n))
}

// tailPercentile reports the want-quantile of an ascending sample when at
// least minTail samples lie beyond it, and otherwise the highest quantile
// that has minTail beyond it. It returns the value and the quantile used;
// ok is false when that quantile would fall below the median.
func tailPercentile(sorted []float64, want float64) (value, q float64, ok bool) {
	n := len(sorted)
	k := min(rank(n, want), n-minTail)
	if n == 0 || k < rank(n, 0.5) {
		return math.NaN(), 0, false
	}
	return sorted[k-1], float64(k) / float64(n), true
}

// median returns the median of values (not necessarily sorted).
func median(values []float64) float64 {
	s := sortedCopy(values)
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

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so spreads printed here match ones computed with Python. A
// single value is its own quartiles.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
