package main

import (
	"sort"
	"time"
)

// sample is one reported metric: its value and how many timed observations
// stand behind it (1 for counts and ratios read once).
type sample struct {
	Value float64
	N     int
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailMinBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the "percentile" is a handful of outliers, not a property of
// the distribution.
const tailMinBeyond = 10

// tail returns the highest percentile of an ascending sample that still has
// at least tailMinBeyond samples beyond it, capped at p99, and its value by
// nearest rank. A sample too small to support any percentile above the
// median reports the median (q = 0.5), so the metric is defined for a
// nine-rep workload as well as for a million requests.
func tail(asc []float64) (q, v float64) {
	n := len(asc)
	if n == 0 {
		return 0.5, 0
	}
	i := (n*99+99)/100 - 1 // nearest rank of p99: ⌈0.99 n⌉, counted from 0
	if most := n - 1 - tailMinBeyond; i > most {
		i = most
	}
	if i <= (n-1)/2 {
		return 0.5, median(asc)
	}
	return float64(i+1) / float64(n), asc[i]
}

// seconds converts durations to float seconds for the statistics helpers.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
