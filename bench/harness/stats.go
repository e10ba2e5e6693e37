package harness

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the figure is set by a handful of outliers.
const minBeyond = 10

// Percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule; 0 for an empty sample. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100)) // multiply first: 95*200/100 is exact, 0.95*200 is not
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median is the 50th percentile with the usual midpoint for even n.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// HighestPercentile is the highest whole percentile of a sample of n
// that still has at least ten samples beyond it (0 when n is too small
// for any): 95 at n = 200, 99 at n = 1000, 90 at n = 100.
func HighestPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		rank := (p*n + 99) / 100
		if n-rank >= minBeyond {
			return p
		}
	}
	return 0
}
