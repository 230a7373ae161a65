package main

import (
	"math"
	"sort"
)

// median of vals; NaN when empty, so a metric that was never sampled
// cannot pass for a measurement.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile that still has at least ten
// samples beyond it, and its value: p99 needs 1000 samples, p90 needs
// 100, p50 is all a sample of 20 supports. Below 20 samples the median
// is the only supported percentile.
func tail(vals []float64) (pct float64, v float64) {
	n := len(vals)
	if n < 20 {
		return 50, median(vals)
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx]
}

// quantile is the p-quantile of sorted s by linear interpolation on
// the "exclusive" positions Python's statistics.quantiles uses, so the
// spread printed by -aa is the one the acceptance driver computes.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return (quantile(s, 0.75) - quantile(s, 0.25)) / median(s)
}
