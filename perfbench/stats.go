package main

import (
	"math"
	"sort"
)

// median returns the median of vals (the mean of the middle two for
// an even count). It does not modify vals.
func median(vals []float64) float64 {
	return quantile(vals, 0.5)
}

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks. It does not modify vals.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// latencies summarizes one round's closed-loop latency samples (in
// seconds) into p50 and p99 in milliseconds. The p99 needs at least ten
// samples beyond it, so a round with fewer than 1000 samples reports
// none.
func latencies(s sample, samples []float64) {
	if len(samples) == 0 {
		return
	}
	s["realize_p50_ms"] = 1e3 * quantile(samples, 0.5)
	if len(samples) >= 1000 {
		s["realize_p99_ms"] = 1e3 * quantile(samples, 0.99)
	}
}
