package main

import (
	"context"
	"testing"
	"time"

	"dnstime/internal/campaign"
	"dnstime/internal/obs"
)

// fakeClock is a host clock the test advances by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) advance(ms int) { c.t = c.t.Add(time.Duration(ms) * time.Millisecond) }
func fire(tr obs.Tracer)            { tr.Event(time.Time{}, "clock", "fire", "seq=0") }
func deliver(tr obs.Tracer, src, dst string) {
	tr.Event(time.Time{}, "net", "deliver", src+">"+dst+" id=1 off=0 len=60")
}
func netEvent(tr obs.Tracer, kind, dst string) {
	tr.Event(time.Time{}, "net", kind, "1.2.3.4>"+dst+" id=1 off=0 len=60")
}

// TestSelfTimeAttribution checks that every interval between clock fires
// is charged to the receiver of the packet delivered in it (the simclock
// when none was), and nothing before the first or after the last fire.
func TestSelfTimeAttribution(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	tot := &layerTotals{}
	tr := newLayerTracer(tot, clk.now)

	clk.advance(1) // lab set-up before the first fire: not charged
	fire(tr)
	netEvent(tr, "send", "192.0.2.53")
	deliver(tr, "198.51.100.53", "192.0.2.53")
	clk.advance(2) // resolver
	fire(tr)
	clk.advance(1) // no delivery: simclock
	fire(tr)
	deliver(tr, "192.0.2.53", "10.0.0.1")
	deliver(tr, "10.0.0.1", "192.0.2.101") // the last delivery is charged
	clk.advance(3)                         // client
	fire(tr)
	deliver(tr, "203.0.113.66", "198.51.100.53")
	clk.advance(4) // nameserver
	fire(tr)
	deliver(tr, "192.0.2.53", "203.0.113.66")
	netEvent(tr, "reasm", "192.0.2.53")
	netEvent(tr, "drop", "192.0.2.53")
	tr.Event(time.Time{}, "attack", "plant-round", "round=0")
	clk.advance(5) // attacker
	fire(tr)
	deliver(tr, "192.0.2.53", "6.6.0.1")
	clk.advance(6) // evil pool server
	fire(tr)
	deliver(tr, "192.0.2.53", "8.8.8.8")
	clk.advance(7) // outside the address plan
	fire(tr)
	clk.advance(8) // after the last fire: not charged
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	want := [nComponents]time.Duration{
		compSimclock: ms(1), compDNSRes: ms(2), compNTPClient: ms(3), compDNSAuth: ms(4),
		compAttack: ms(5), compNTPServ: ms(6), compOther: ms(7),
	}
	if tot.self != want {
		t.Errorf("self times %v, want %v", tot.self, want)
	}
	wantCounts := counts{Events: 8, Sent: 1, Delivered: 7, Dropped: 1, Reassembled: 1, PlantRounds: 1, ResDeliver: 1}
	if tot.counts != wantCounts {
		t.Errorf("counts %+v, want %+v", tot.counts, wantCounts)
	}
}

// TestLayerPassAccounting runs layerPass over a synthetic work list and
// checks that the reported self times plus trace.unattributed_s add up to
// the traced pass's worker-seconds, and that counts which differ between
// worker counts are reported as a failure.
func TestLayerPassAccounting(t *testing.T) {
	for _, skew := range []bool{false, true} {
		pass := func(_ context.Context, workers int, tracers tracerSource) ([]campaign.ScenarioAggregate, error) {
			if tracers != nil {
				tr, err := tracers("synthetic")(1)
				if err != nil {
					return nil, err
				}
				fires := 3
				if skew && workers == 1 {
					fires++
				}
				for i := 0; i < fires; i++ {
					fire(tr)
					deliver(tr, "192.0.2.53", "198.51.100.53")
					time.Sleep(time.Millisecond)
				}
				if err := tr.(interface{ Close() error }).Close(); err != nil {
					return nil, err
				}
			}
			return []campaign.ScenarioAggregate{{Scenario: "synthetic", Runs: 1}}, nil
		}
		rep := newReport()
		verify := func(rep *report, aggs []campaign.ScenarioAggregate, _ string) { rep.attempted += len(aggs) }
		if _, err := layerPass(context.Background(), rep, options{workers: 2}, pass, verify); err != nil {
			t.Fatal(err)
		}
		if got := rep.failed > 0; got != skew {
			t.Errorf("skew=%v: failed=%d (%v)", skew, rep.failed, rep.problems)
		}
		info := rep.info["layer_pass"].(map[string]any)
		budget := 2 * info["traced_s"].(float64)
		sum := rep.metrics["trace.unattributed_s"].Value
		for comp := component(0); comp < nComponents; comp++ {
			if comp != compOther {
				sum += rep.metrics[componentNames[comp]+".self_s"].Value
			}
		}
		if d := sum - budget; d > 1e-9 || d < -1e-9 {
			t.Errorf("self times + unattributed = %v, traced worker-seconds %v", sum, budget)
		}
		if rep.metrics["dnsauth.self_s"].Value <= 0 {
			t.Error("no self time charged to the nameserver")
		}
	}
}

func TestComponentOf(t *testing.T) {
	for dst, want := range map[string]component{
		"198.51.100.53": compDNSAuth, "192.0.2.53": compDNSRes, "203.0.113.66": compAttack,
		"10.0.0.3": compNTPServ, "6.6.0.2": compNTPServ, "192.0.2.100": compNTPClient,
		"192.0.2.254": compOther, "8.8.8.8": compOther, "": compOther,
	} {
		if got := componentOf(dst); got != want {
			t.Errorf("componentOf(%q) = %s, want %s", dst, componentNames[got], componentNames[want])
		}
	}
	if got := packetDst("1.2.3.4>5.6.7.8 id=1 off=0 len=60"); got != "5.6.7.8" {
		t.Errorf("packetDst = %q", got)
	}
}
