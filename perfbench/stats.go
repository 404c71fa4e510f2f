package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a timing can be reported at, in
// ascending order. The highest one with at least minBeyond samples above
// it is a timing's reportable tail.
var tailLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the value is set by a handful of outliers.
const minBeyond = 10

// timing summarises a set of latency samples: the sample count, the
// median, and the highest ladder percentile that has at least minBeyond
// samples beyond it (TailPct 0 when even the median does not qualify).
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// summarize computes the timing summary of xs (xs is not modified).
func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := timing{N: len(s), P50: percentile(s, 50)}
	for _, p := range tailLadder {
		if beyond(len(s), p) >= minBeyond {
			t.TailPct, t.Tail = p, percentile(s, p)
		}
	}
	return t
}

// beyond is the number of samples of n that lie strictly above the p-th
// percentile's nearest-rank position.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples: the smallest k with k/n >= p/100.
func rank(n int, p float64) int {
	// The epsilon keeps binary rounding (99.9/100*10000 > 9990) from
	// moving an exact rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of sorted (0 for an
// empty slice).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// percentileOf is the nearest-rank p-th percentile of xs (xs is not
// modified).
func percentileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentileOf(xs, 50) }

// segmentPercentile splits xs, in the order they were measured, into
// consecutive segments of size samples, takes the p-th percentile of
// each, and returns the median of those percentiles. A trailing partial
// segment is dropped unless it is the only one. Neighbour load on a shared
// host that slows a few segments then moves the result only when it slows
// most of them, where a percentile over all samples at once follows the
// slowest stretch of the run.
func segmentPercentile(xs []float64, size int, p float64) float64 {
	if len(xs) <= size {
		return percentileOf(xs, p)
	}
	var ps []float64
	for i := 0; i+size <= len(xs); i += size {
		ps = append(ps, percentileOf(xs[i:i+size], p))
	}
	return median(ps)
}
