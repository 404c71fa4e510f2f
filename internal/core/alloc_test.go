package core

import (
	"testing"
)

// allocBudgetLabReset is the committed budget for re-purposing a pooled
// laboratory to a new seed: Lab.Reset re-wires nameserver, resolver,
// attacker and twelve NTP servers in place, so the remaining allocations
// are the handful of per-run config values (the defaults pointer, network
// options, the pool record set). Building the same lab from scratch costs
// thousands of allocations; this gate keeps the pooled path two orders of
// magnitude under that.
const allocBudgetLabReset = 40

func TestAllocBudgetLabReset(t *testing.T) {
	l := MustNewLab(LabConfig{Seed: 1})
	seed := int64(1)
	reset := func() {
		seed++
		if err := l.Reset(LabConfig{Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the event arena and component scratch before measuring.
	for i := 0; i < 4; i++ {
		reset()
	}
	avg := testing.AllocsPerRun(50, reset)
	if avg > allocBudgetLabReset {
		t.Errorf("%.1f allocs per pooled lab reset, budget %d", avg, allocBudgetLabReset)
	}
}

// BenchmarkLabReset times the pooled reset TestAllocBudgetLabReset gates:
// one Lab.Reset to a fresh seed, which re-seeds the network, resolver and
// attacker RNGs and re-wires every component in place.
func BenchmarkLabReset(b *testing.B) {
	l := MustNewLab(LabConfig{Seed: 1})
	b.ReportAllocs()
	for i := range b.N {
		if err := l.Reset(LabConfig{Seed: int64(i) + 2}); err != nil {
			b.Fatal(err)
		}
	}
}
