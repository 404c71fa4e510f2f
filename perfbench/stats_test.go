package main

import (
	"math/rand"
	"testing"
)

// TestSummarizeTailRule pins the reporting rule: the tail is the highest
// ladder percentile with at least ten samples beyond it, and the sample
// count is reported with it.
func TestSummarizeTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		tailPct float64
	}{
		{0, 0}, {1, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(tc.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got := summarize(xs)
		if got.N != tc.n {
			t.Errorf("n=%d: N = %d", tc.n, got.N)
		}
		if got.TailPct != tc.tailPct {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, got.TailPct, tc.tailPct)
		}
		if tc.tailPct > 0 {
			// Samples are 1..n, so the nearest-rank percentile is its rank
			// and exactly that many samples lie at or below it.
			if above := float64(tc.n) - got.Tail; above < minBeyond {
				t.Errorf("n=%d: %v samples beyond the p%v tail, want >= %d", tc.n, above, tc.tailPct, minBeyond)
			}
		}
		if tc.n > 0 && got.P50 != float64(rank(tc.n, 50)) {
			t.Errorf("n=%d: median %v, want %d", tc.n, got.P50, rank(tc.n, 50))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {20, 1}, {21, 2}, {50, 3}, {90, 5}, {100, 5}} {
		if got := percentileOf(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentileOf(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentileOf sorted its input in place")
	}
}

// TestSegmentPercentile pins the segment rule: the median of each whole
// segment's percentile, so one slow segment does not move the result.
func TestSegmentPercentile(t *testing.T) {
	// Four segments of four; the third is slowed tenfold.
	xs := []float64{1, 2, 3, 4, 2, 3, 4, 5, 30, 40, 50, 60, 1, 2, 3, 4, 99}
	// Segment p90s are 4, 5, 60, 4: the median is 4. The trailing 99 is a
	// partial segment and is dropped.
	if got := segmentPercentile(xs, 4, 90); got != 4 {
		t.Errorf("segment p90 = %v, want 4", got)
	}
	// Segment medians are 2, 3, 40, 2: the nearest-rank median is 2.
	if got := segmentPercentile(xs, 4, 50); got != 2 {
		t.Errorf("segment p50 = %v, want 2", got)
	}
	// Fewer samples than one segment: the percentile of all of them.
	if got, want := segmentPercentile(xs[:3], 4, 90), percentileOf(xs[:3], 90); got != want {
		t.Errorf("short input p90 = %v, want %v", got, want)
	}
}
