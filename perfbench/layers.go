package main

import (
	"strings"
	"sync"
	"time"

	"dnstime/internal/core"
	"dnstime/internal/ipv4"
	"dnstime/internal/obs"
)

// component names the lab module a stretch of host time is charged to.
type component int

const (
	compSimclock component = iota // an interval in which no packet was delivered
	compDNSAuth
	compDNSRes
	compNTPServ
	compNTPClient // ntpd/chrony/openntpd/sntp clients and Chronos
	compAttack
	compOther // a delivery to an address outside the lab's address plan
	nComponents
)

var componentNames = [nComponents]string{"simclock", "dnsauth", "dnsres", "ntpserv", "ntpclient", "attack", "other"}

// The lab's fixed host addresses, as simnet events print them.
var (
	nsAddr       = core.NSAddr.String()
	resolverAddr = core.ResolverAddr.String()
	attackerAddr = core.AttackerAddr.String()
)

// componentOf maps a delivered packet's destination address to the lab
// module that owns that host (see core.Lab's address plan).
func componentOf(dst string) component {
	switch dst {
	case nsAddr:
		return compDNSAuth
	case resolverAddr:
		return compDNSRes
	case attackerAddr:
		return compAttack
	}
	a, err := ipv4.ParseAddr(dst)
	if err != nil {
		return compOther
	}
	switch {
	case a[0] == 10 && a[1] == 0, a[0] == 6 && a[1] == 6: // honest and evil pool servers
		return compNTPServ
	case a[0] == 192 && a[1] == 0 && a[2] == 2 && a[3] >= 100 && a[3] < 254: // victim clients
		return compNTPClient
	}
	return compOther
}

// counts are the exact work counts of a traced pass. They depend only on
// the simulated inputs, never on timing or worker count.
type counts struct {
	Events      int64 `json:"simclock.events"`
	Sent        int64 `json:"simnet.sent"`
	Delivered   int64 `json:"simnet.delivered"`
	Dropped     int64 `json:"simnet.dropped"`
	Reassembled int64 `json:"ipv4.reassembled"`
	Badsum      int64 `json:"ipv4.badsum"`
	PlantRounds int64 `json:"attack.plant_rounds"`
	ResDeliver  int64 `json:"dnsres.deliveries"`
	PoolHits    int64 `json:"core.pool_hits"`
	PoolMisses  int64 `json:"core.pool_misses"`
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Sent += o.Sent
	c.Delivered += o.Delivered
	c.Dropped += o.Dropped
	c.Reassembled += o.Reassembled
	c.Badsum += o.Badsum
	c.PlantRounds += o.PlantRounds
	c.ResDeliver += o.ResDeliver
}

// layerTotals accumulates every closed layerTracer of one traced pass.
type layerTotals struct {
	mu     sync.Mutex
	counts counts
	self   [nComponents]time.Duration
}

// layerTracer is the per-seed tracer of a traced pass. It reads the
// events the lab forwards — clock fires, simnet packet events, attack
// phase events — and charges the host time between consecutive clock
// fires to the module whose host received the packet delivered in that
// interval (the simclock itself when none was). Time before the first
// fire and after the last is charged to nothing.
type layerTracer struct {
	now    func() time.Time
	totals *layerTotals

	last   time.Time // host time of the previous clock fire
	fired  bool
	charge component // module charged for the current interval
	counts counts
	self   [nComponents]time.Duration
}

func newLayerTracer(totals *layerTotals, now func() time.Time) *layerTracer {
	return &layerTracer{now: now, totals: totals}
}

// Enabled reports true: the lab wires its hooks only for enabled tracers.
func (t *layerTracer) Enabled() bool { return true }

// Event consumes one forwarded lab event.
func (t *layerTracer) Event(_ time.Time, cat, name, detail string) {
	switch cat {
	case "clock":
		if name != "fire" {
			return
		}
		now := t.now()
		if t.fired {
			t.self[t.charge] += now.Sub(t.last)
		}
		t.last, t.fired, t.charge = now, true, compSimclock
		t.counts.Events++
	case "net":
		switch name {
		case "send":
			t.counts.Sent++
		case "deliver":
			t.counts.Delivered++
			t.charge = componentOf(packetDst(detail))
			if t.charge == compDNSRes {
				t.counts.ResDeliver++
			}
		case "drop":
			t.counts.Dropped++
		case "reasm":
			t.counts.Reassembled++
		case "badsum":
			t.counts.Badsum++
		}
	case "attack":
		if name == "plant-round" {
			t.counts.PlantRounds++
		}
	}
}

// Span ignores the lab's phase spans: only instants carry layer work.
func (t *layerTracer) Span(time.Time, time.Time, string, string, string) {}

// Close folds the seed's counts and self times into the pass totals.
func (t *layerTracer) Close() error {
	t.totals.mu.Lock()
	defer t.totals.mu.Unlock()
	t.totals.counts.add(t.counts)
	for i, d := range t.self {
		t.totals.self[i] += d
	}
	return nil
}

// packetDst extracts the destination address from a simnet event detail
// ("src>dst id=… off=… len=…").
func packetDst(detail string) string {
	_, rest, ok := strings.Cut(detail, ">")
	if !ok {
		return ""
	}
	dst, _, _ := strings.Cut(rest, " ")
	return dst
}

// seedTimes records per-seed host latency, by scenario, from tracer open
// to Close. Its tracers are disabled, so the lab wires no hooks and no
// event is ever formatted: a timed run is an untraced run.
type seedTimes struct {
	mu sync.Mutex
	ms map[string][]float64
}

func newSeedTimes() *seedTimes { return &seedTimes{ms: map[string][]float64{}} }

// factory returns a campaign.WithTracerFactory source for scenario name.
func (s *seedTimes) factory(name string) func(int64) (obs.Tracer, error) {
	return func(int64) (obs.Tracer, error) {
		return &seedTimer{owner: s, name: name, start: time.Now()}, nil
	}
}

func (s *seedTimes) of(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ms[name]...)
}

// seedTimer is one seed's disabled timing tracer.
type seedTimer struct {
	owner *seedTimes
	name  string
	start time.Time
}

func (*seedTimer) Enabled() bool                                     { return false }
func (*seedTimer) Event(time.Time, string, string, string)           {}
func (*seedTimer) Span(time.Time, time.Time, string, string, string) {}

// Close records the seed's open-to-Close latency in milliseconds.
func (t *seedTimer) Close() error {
	ms := float64(time.Since(t.start)) / float64(time.Millisecond)
	t.owner.mu.Lock()
	t.owner.ms[t.name] = append(t.owner.ms[t.name], ms)
	t.owner.mu.Unlock()
	return nil
}
