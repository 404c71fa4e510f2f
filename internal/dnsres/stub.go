package dnsres

import (
	"fmt"
	"math/rand"
	"time"

	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/simnet"
	"dnstime/internal/simrand"
)

// Stub is a minimal DNS stub resolver for hosts that query a recursive
// resolver over the simulated network: NTP clients, SMTP servers, web
// clients and the cache-snooping scanner all use it.
type Stub struct {
	host     *simnet.Host
	resolver ipv4.Addr
	rng      *rand.Rand
	// Timeout bounds each query (default 3 s).
	Timeout time.Duration

	// dec and rxMsg are the response-decode scratch. The message handed to
	// a Lookup callback is valid only during that callback: every consumer
	// (LookupA, snooping scans) extracts what it keeps into fresh values
	// before returning, and handlers never nest on the single-threaded
	// event loop.
	dec   dnswire.Decoder
	rxMsg dnswire.Message
}

// NewStub returns a stub that queries resolver from host.
func NewStub(host *simnet.Host, resolver ipv4.Addr, seed int64) *Stub {
	return &Stub{
		host:     host,
		resolver: resolver,
		rng:      rand.New(simrand.New(seed)),
		Timeout:  3 * time.Second,
	}
}

// Resolver returns the upstream resolver address.
func (s *Stub) Resolver() ipv4.Addr { return s.resolver }

// SetResolver repoints the stub (used when reconfiguring clients).
func (s *Stub) SetResolver(a ipv4.Addr) { s.resolver = a }

// Lookup sends one query and calls done with the full response message.
// rd=false performs a cache-snooping (non-recursive) query. The message is
// the stub's decode scratch: it is valid only for the duration of the
// callback, which must copy anything it keeps (decoded names are shared
// immutable strings and safe to retain as-is).
func (s *Stub) Lookup(name string, qtype dnswire.Type, rd bool, done func(*dnswire.Message, error)) {
	name = dnswire.CanonicalName(name)
	txid := uint16(s.rng.Intn(1 << 16))
	var port uint16
	var timer interface{ Stop() bool }
	handler := func(src ipv4.Addr, srcPort uint16, payload []byte) {
		if src != s.resolver || srcPort != DNSPort {
			return
		}
		m := &s.rxMsg
		if err := s.dec.UnmarshalInto(m, payload); err != nil || !m.Header.QR || m.Header.ID != txid {
			return
		}
		timer.Stop()
		s.host.UnhandleUDP(port)
		done(m, nil)
	}
	for {
		port = uint16(1024 + s.rng.Intn(64512))
		if port == DNSPort {
			continue
		}
		if err := s.host.HandleUDP(port, handler); err == nil {
			break
		}
	}
	timeout := s.Timeout
	if timeout == 0 {
		timeout = 3 * time.Second
	}
	timer = s.host.Clock().Schedule(timeout, func() {
		s.host.UnhandleUDP(port)
		done(nil, fmt.Errorf("%w: %s %s @%s", ErrTimeout, name, qtype, s.resolver))
	})
	q := dnswire.NewQuery(txid, name, qtype, rd)
	wire, err := q.Marshal()
	if err != nil {
		timer.Stop()
		s.host.UnhandleUDP(port)
		done(nil, err)
		return
	}
	if _, err := s.host.SendUDP(s.resolver, port, DNSPort, wire); err != nil {
		timer.Stop()
		s.host.UnhandleUDP(port)
		done(nil, err)
	}
}

// LookupA resolves A records for name recursively, reporting the addresses
// and the (minimum) answer TTL in seconds.
func (s *Stub) LookupA(name string, done func(addrs []ipv4.Addr, ttl uint32, err error)) {
	s.Lookup(name, dnswire.TypeA, true, func(m *dnswire.Message, err error) {
		if err != nil {
			done(nil, 0, err)
			return
		}
		switch m.Header.RCode {
		case dnswire.RCodeNoError:
		case dnswire.RCodeNXDomain:
			done(nil, 0, fmt.Errorf("%w: %s", ErrNXDomain, name))
			return
		default:
			done(nil, 0, fmt.Errorf("%w: rcode %d", ErrServFail, m.Header.RCode))
			return
		}
		addrs := m.AddrsInAnswer(name)
		if len(addrs) == 0 {
			done(nil, 0, fmt.Errorf("%w: empty answer for %s", ErrServFail, name))
			return
		}
		ttl := ^uint32(0)
		for _, rr := range m.Answers {
			if rr.Type == dnswire.TypeA && rr.TTL < ttl {
				ttl = rr.TTL
			}
		}
		done(addrs, ttl, nil)
	})
}
