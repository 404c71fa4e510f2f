package campaign

import (
	"context"
	"strings"
	"sync"
	"testing"

	"dnstime/internal/ntpclient"
)

// metric finds the named summary in an aggregate.
func metric(t *testing.T, agg ScenarioAggregate, name string) MetricSummary {
	t.Helper()
	for _, m := range agg.Metrics {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("%s aggregate has no metric %q", agg.Scenario, name)
	return MetricSummary{}
}

func TestRunBootTimeAggregate(t *testing.T) {
	agg, err := NewEngine(WithSeeds(8), WithWorkers(4), WithParam("client", "ntpd")).
		Run(context.Background(), "boot")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 8 {
		t.Fatalf("runs = %d, want 8", agg.Runs)
	}
	if agg.Errors != 0 {
		t.Fatalf("errors = %d: %+v", agg.Errors, agg.PerRun)
	}
	if agg.Successes != 8 {
		t.Errorf("successes = %d, want 8 (ntpd boot-time attack is deterministic)", agg.Successes)
	}
	if agg.SuccessRate != 100 {
		t.Errorf("success rate = %v, want 100", agg.SuccessRate)
	}
	if agg.SuccessCI.Lo <= 0 || agg.SuccessCI.Hi != 100 {
		t.Errorf("Wilson CI = %+v, want (0,100]", agg.SuccessCI)
	}
	if tts := metric(t, agg, "tts_s"); tts.Mean <= 0 || tts.Min > tts.Median || tts.Median > tts.Max {
		t.Errorf("bad time-to-shift stats: %+v", tts)
	}
	for i, r := range agg.PerRun {
		if r.Seed != int64(1+i) {
			t.Fatalf("PerRun[%d].Seed = %d, want %d (seed order)", i, r.Seed, 1+i)
		}
		if off := r.Metrics["offset_s"]; off > -400 || off < -600 {
			t.Errorf("seed %d: offset %v s, want ≈ −500 s", r.Seed, off)
		}
	}
}

// TestRunDeterministicAcrossWorkers is the engine's core contract: the same
// seeds produce byte-identical aggregates at any worker count, here for a
// parameterised attack.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	marshal := func(workers int) string {
		return marshalAgg(t, "boot", WithSeeds(16), WithWorkers(workers),
			WithParam("client", "chrony"), WithParam("offset", "-300s"))
	}
	serial := marshal(1)
	for _, w := range []int{2, 8} {
		if got := marshal(w); got != serial {
			t.Errorf("workers=%d output differs from workers=1:\n%s\nvs\n%s", w, got, serial)
		}
	}
}

// TestTableIDeterministicAcrossWorkers is the acceptance criterion: a
// 64-seed Table I campaign is byte-identical at -workers 1 and -workers 8.
func TestTableIDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("64-seed campaign in -short mode")
	}
	serial := marshalAgg(t, "table1", WithSeeds(64), WithWorkers(1))
	if parallel := marshalAgg(t, "table1", WithSeeds(64), WithWorkers(8)); parallel != serial {
		t.Fatalf("workers=8 output differs from workers=1")
	}
}

// TestTableIRows: the table1 aggregate carries one boot outcome per
// client profile over every seed, and — the paper's Table I — all seven
// clients are boot-time vulnerable.
func TestTableIRows(t *testing.T) {
	agg, err := NewEngine(WithSeeds(4), WithWorkers(8)).Run(context.Background(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	boot := 0
	for _, pu := range ntpclient.AllProfiles() {
		m := metric(t, agg, "boot/"+pu.Profile.Name)
		if m.Samples != 4 {
			t.Errorf("%s: boot samples = %d, want 4", pu.Profile.Name, m.Samples)
		}
		if m.Min == 1 {
			boot++
		}
	}
	if boot != 7 {
		t.Errorf("boot-vulnerable clients = %d, want 7", boot)
	}
}

func TestRunChronosCampaign(t *testing.T) {
	agg, err := NewEngine(WithSeeds(3), WithWorkers(3), WithParam("N", "5")).
		Run(context.Background(), "chronos")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Errors != 0 {
		t.Fatalf("errors = %d: %+v", agg.Errors, agg.PerRun)
	}
	// N=5 ≤ bound 11: poisoning lands early enough, every seed shifts.
	if agg.Successes != agg.Runs {
		t.Errorf("successes = %d/%d, want all", agg.Successes, agg.Runs)
	}
	// Chronos has no time-to-shift; the aggregate must not invent one.
	for _, m := range agg.Metrics {
		if strings.HasPrefix(m.Name, "tts") {
			t.Errorf("chronos aggregate reports a time-to-shift metric %q", m.Name)
		}
	}
}

func TestRunProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	agg, err := NewEngine(
		WithSeeds(6), WithWorkers(3), WithParam("client", "ntpdate"),
		WithProgress(func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != 6 {
				t.Errorf("total = %d, want 6", total)
			}
			dones = append(dones, done)
		}),
	).Run(context.Background(), "boot")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 6 {
		t.Fatalf("runs = %d", agg.Runs)
	}
	if len(dones) != 6 {
		t.Fatalf("progress calls = %d, want 6", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress counts = %v, want 1..6 in order", dones)
		}
	}
}
