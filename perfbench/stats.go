package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether it may be reported: at least ten samples must lie beyond it, so
// the 50th percentile needs 20 samples and the 90th needs 100.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	// The nearest rank, guarded against p·n landing a hair above an
	// integer in floating point.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 || n-rank < 10 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
