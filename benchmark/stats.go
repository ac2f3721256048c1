package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the least number of samples that must lie beyond a
// percentile for it to be reported.
const minBeyond = 10

// beyond is how many of n samples lie strictly beyond percentile p.
func beyond(n int, p float64) int { return int(math.Floor(float64(n)*(1-p) + 1e-9)) }

// percentile returns the p-quantile (nearest rank) of sorted, and whether
// enough samples lie beyond it for the value to be reported.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return sorted[rank], beyond(n, p) >= minBeyond
}

func sortedCopy(v []float64) []float64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver's spread check uses. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := max(1, min(k*(n+1)/4, n-1)) // 1-based rank, clamped to 1..n-1
		delta := k*(n+1) - j*4           // computed after clamping, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
