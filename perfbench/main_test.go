package main

import "testing"

// TestStealShare checks the steal share of two /proc/stat readings: steal
// ticks over the ticks that were neither idle nor waiting for I/O.
func TestStealShare(t *testing.T) {
	before := []int64{100, 0, 10, 500, 5, 0, 0, 20, 0, 0}
	after := []int64{160, 0, 20, 900, 9, 0, 10, 40, 0, 0}
	// busy: 60 user + 10 system + 10 softirq + 20 steal = 100
	if got := stealShare(before, after); got != 0.2 {
		t.Fatalf("stealShare = %v, want 0.2", got)
	}
	if got := stealShare(nil, after); got != -1 {
		t.Fatalf("stealShare without counters = %v, want -1", got)
	}
}
