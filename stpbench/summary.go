package main

import (
	"math"
	"sort"
)

// minTailSamples is the sample count below which a P99 is not reported:
// with fewer than 1000 samples fewer than ten lie beyond the 99th
// percentile, so the figure would be one or two outliers, not a tail.
const minTailSamples = 1000

// latencySummary is the median and, when there are enough samples, the
// 99th percentile of a set of latencies.
type latencySummary struct {
	N      int
	P50    float64
	P99    float64
	HasP99 bool
}

// summarize sorts samples in place and summarizes them.
func summarize(samples []float64) latencySummary {
	sort.Float64s(samples)
	s := latencySummary{N: len(samples), P50: quantileSorted(samples, 0.5)}
	if len(samples) >= minTailSamples {
		s.P99 = quantileSorted(samples, 0.99)
		s.HasP99 = true
	}
	return s
}

// quantileSorted is the q-quantile of sorted samples by linear
// interpolation between closest ranks (the rule numpy and Excel call
// "inclusive"): rank q·(n−1), 0-based. NaN for no samples.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// median of samples (copied, so the caller's order is kept).
func median(samples []float64) float64 {
	c := append([]float64(nil), samples...)
	sort.Float64s(c)
	return quantileSorted(c, 0.5)
}
