package main

import (
	"fmt"
	"reflect"
	"testing"

	"dnstime/internal/campaign"
)

// TestGeneratorMix checks that every block of rounds holds exactly the
// stated miss, hit and coalesced submissions, that repeats only name specs
// completed in an earlier round, and that every deck of fresh specs deals
// each scenario × seed count pair once.
func TestGeneratorMix(t *testing.T) {
	g := newGenerator(7)
	minted := map[int64]int{} // fresh base seed → round it was minted in
	var fresh []campaign.JobSpec
	for block := 0; block < 500; block++ {
		var miss, hit, coalesced int
		for r := 0; r < blockRounds; r++ {
			round := block*blockRounds + r
			for i, p := range g.next() {
				base := *p.spec.BaseSeed
				switch {
				case p.kind == kindRepeat:
					hit++
					if m, ok := minted[base]; !ok || m >= round {
						t.Fatalf("round %d: repeat of a spec not completed in an earlier round", round)
					}
				case p.kind == kindShared && i > 0:
					coalesced++
				default:
					miss++
					if _, dup := minted[base]; dup {
						t.Fatalf("round %d: fresh spec reuses base seed %d", round, base)
					}
					minted[base] = round
					fresh = append(fresh, p.spec)
				}
			}
		}
		if miss != 5 || hit != 2 || coalesced != 1 {
			t.Fatalf("block %d: %d misses, %d hits, %d coalesced; want 5, 2, 1", block, miss, hit, coalesced)
		}
	}
	deck := len(serveScenarios) * len(serveSeeds)
	for d := 0; d+deck <= len(fresh); d += deck {
		seen := map[string]bool{}
		for _, spec := range fresh[d : d+deck] {
			seen[fmt.Sprint(spec.Scenario, spec.Seeds)] = true
		}
		if len(seen) != deck {
			t.Fatalf("deck at fresh spec %d deals %d distinct pairs, want %d", d, len(seen), deck)
		}
	}
}

// TestGeneratorDeterministic checks that a seed fixes the whole plan and
// that different seeds give different plans.
func TestGeneratorDeterministic(t *testing.T) {
	plan := func(seed int64) [][serveClients]plannedJob {
		g := newGenerator(seed)
		var out [][serveClients]plannedJob
		for i := 0; i < 200; i++ {
			out = append(out, g.next())
		}
		return out
	}
	a, b := plan(3), plan(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different plans")
	}
	if reflect.DeepEqual(a, plan(4)) {
		t.Fatal("seeds 3 and 4 produced the same plan")
	}
	for _, round := range a {
		for _, p := range round {
			if _, err := p.spec.Key(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStatusMismatches checks that a submission fails when its status
// disagrees with its planned kind: a fresh spec not run, a repeat run
// again, or a shared spec run other than exactly once.
func TestStatusMismatches(t *testing.T) {
	g := newGenerator(1)
	shared := g.next() // the first round of a block is shared
	var fresh, repeat plannedJob
	for fresh.spec.Scenario == "" || repeat.spec.Scenario == "" {
		for _, p := range g.next() {
			switch p.kind {
			case kindFresh:
				fresh = p
			case kindRepeat:
				repeat = p
			}
		}
	}
	for _, c := range []struct {
		name     string
		round    [serveClients]plannedJob
		executed [serveClients]bool
		want     int
	}{
		{"fresh runs, repeat hits", [serveClients]plannedJob{fresh, repeat}, [serveClients]bool{true, false}, 0},
		{"fresh answered from the cache", [serveClients]plannedJob{fresh, repeat}, [serveClients]bool{false, false}, 1},
		{"repeat runs again", [serveClients]plannedJob{fresh, repeat}, [serveClients]bool{true, true}, 1},
		{"both wrong", [serveClients]plannedJob{fresh, repeat}, [serveClients]bool{false, true}, 2},
		{"shared runs once", shared, [serveClients]bool{false, true}, 0},
		{"shared runs twice", shared, [serveClients]bool{true, true}, 1},
		{"shared never runs", shared, [serveClients]bool{false, false}, 1},
	} {
		if got := statusMismatches(c.round, c.executed); len(got) != c.want {
			t.Errorf("%s: %d failures %q, want %d", c.name, len(got), got, c.want)
		}
	}
}

// TestSegmentsAlike checks that every segment of segmentRounds rounds
// plans latencySegment engine-run jobs with the same scenario and seed
// count mix, so per-segment figures of one run are comparable.
func TestSegmentsAlike(t *testing.T) {
	g := newGenerator(11)
	var first map[string]int
	for seg := 0; seg < 8; seg++ {
		mix := map[string]int{}
		jobs := 0
		for r := 0; r < segmentRounds; r++ {
			for i, p := range g.next() {
				if p.kind == kindFresh || p.kind == kindShared && i == 0 {
					jobs++
					mix[fmt.Sprint(p.spec.Scenario, p.spec.Seeds)]++
				}
			}
		}
		if jobs != latencySegment {
			t.Fatalf("segment %d plans %d engine-run jobs, want %d", seg, jobs, latencySegment)
		}
		if first == nil {
			first = mix
		} else if !reflect.DeepEqual(mix, first) {
			t.Fatalf("segment %d mix %v differs from the first segment's %v", seg, mix, first)
		}
	}
}
