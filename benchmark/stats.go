package main

import (
	"cmp"
	"math"
	"slices"
)

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest element with at least p% of the samples at or
// below it. An empty slice yields the zero value.
func nearestRank[T cmp.Ordered](sorted []T, p float64) T {
	var zero T
	n := len(sorted)
	if n == 0 {
		return zero
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// highestSupported returns the highest percentile of n samples that still has
// at least ten samples beyond it, or 0 when n is too small to support any.
// It is the tail figure the choosing-metrics guide asks for beside the median.
func highestSupported(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 100 * float64(n-10) / float64(n)
}

// median returns the middle value (mean of the two middle values for an even
// count), like Python's statistics.median. It sorts a copy.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the driver uses to judge spread.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// latencySummary condenses one phase's operation latencies (nanoseconds).
type latencySummary struct {
	Samples int
	P50     float64 // microseconds
	P99     float64
	// TailPct is the highest percentile with >= 10 samples beyond it and
	// TailUS its value; both 0 when Samples <= 10.
	TailPct float64
	TailUS  float64
}

func summarize(ns []uint32) latencySummary {
	s := slices.Clone(ns)
	slices.Sort(s)
	out := latencySummary{
		Samples: len(s),
		P50:     float64(nearestRank(s, 50)) / 1e3,
		P99:     float64(nearestRank(s, 99)) / 1e3,
	}
	if p := highestSupported(len(s)); p > 0 {
		out.TailPct = p
		out.TailUS = float64(nearestRank(s, p)) / 1e3
	}
	return out
}

// medianNS returns the median of int64 nanosecond samples as a float64.
func medianNS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	return float64(nearestRank(s, 50))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
