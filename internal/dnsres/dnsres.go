// Package dnsres implements a recursive caching DNS resolver bound to a
// simnet host — the victim of the cache-poisoning attack. It models the
// post-Kaminsky defences the attack bypasses (source-port and TXID
// randomisation per RFC 5452), TTL-driven caching, RD=0 cache-snooping
// semantics used by the Section VIII measurements, optional DNSSEC
// validation, and configurable acceptance of fragmented responses.
package dnsres

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dnstime/internal/dnsauth"
	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
	"dnstime/internal/simrand"
)

// DNSPort is the well-known DNS UDP port.
const DNSPort = 53

// Errors surfaced to lookup callers.
var (
	ErrTimeout     = errors.New("dnsres: query timed out")
	ErrServFail    = errors.New("dnsres: upstream returned SERVFAIL")
	ErrNXDomain    = errors.New("dnsres: no such domain")
	ErrBogusDNSSEC = errors.New("dnsres: DNSSEC validation failed")
)

// Config tunes resolver behaviour.
type Config struct {
	// Delegations maps zone apexes to authoritative nameserver addresses.
	// The most specific suffix match wins.
	Delegations map[string]ipv4.Addr
	// ValidateDNSSEC rejects answers carrying bogus RRSIGs and sets the AD
	// bit on validated answers. Unsigned answers still pass (as on the real
	// Internet, where pool.ntp.org is unsigned — the attack's enabler).
	ValidateDNSSEC bool
	// QueryTimeout bounds each upstream round trip (default 2 s).
	QueryTimeout time.Duration
	// Retries is the number of additional attempts after a timeout
	// (default 1).
	Retries int
	// RandSeed seeds port/TXID randomisation (deterministic per seed).
	RandSeed int64
	// MinTTL clamps cached TTLs from below (default 0).
	MinTTL time.Duration
}

// CacheEntry is one cached RRset.
type CacheEntry struct {
	RRs      []dnswire.RR
	Inserted time.Time
	Expires  time.Time
}

// Stats counts resolver activity.
type Stats struct {
	ClientQueries   int
	CacheHits       int
	CacheMisses     int
	UpstreamQueries int
	Poisoned        int // answers accepted whose TXID/port matched but came via fragments (diagnostic; set by tests)
	ValidationFails int
}

type cacheKey struct {
	name  string
	qtype dnswire.Type
}

// Resolver is a recursive caching resolver.
type Resolver struct {
	host  *simnet.Host
	clock *simclock.Clock
	cfg   Config
	rng   *rand.Rand
	cache map[cacheKey]CacheEntry
	stats Stats

	// dec and rxMsg are the upstream-response decode scratch: the handler
	// fully consumes the message before returning (acceptAnswer copies the
	// RR values it keeps), and packet deliveries never nest, so one reused
	// message absorbs the attacker's response floods without allocating.
	dec   dnswire.Decoder
	rxMsg dnswire.Message

	// cliDec and cliMsg decode client queries; handleClient copies the
	// question value out before any asynchronous work, so the scratch is
	// free for the next arrival. replyBuf is the response encode buffer —
	// a reply encodes and sends in one step (SendUDP copies), so even
	// replies fired from asynchronous lookup callbacks can share it.
	cliDec   dnswire.Decoder
	cliMsg   dnswire.Message
	replyBuf []byte
}

// New binds a resolver to port 53 of host.
func New(host *simnet.Host, cfg Config) (*Resolver, error) {
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	r := &Resolver{
		host:  host,
		clock: host.Clock(),
		cfg:   cfg,
		rng:   rand.New(simrand.New(cfg.RandSeed)),
		cache: make(map[cacheKey]CacheEntry),
	}
	if err := host.HandleUDP(DNSPort, r.handleClient); err != nil {
		return nil, fmt.Errorf("dnsres: bind: %w", err)
	}
	return r, nil
}

// Reset re-binds the resolver to its (freshly host.Reset) host under a new
// configuration, restoring the observable state New produces: empty cache,
// zero stats, RNG stream identical to a fresh simrand.New(RandSeed) (that
// is, math/rand's stream for RandSeed), re-seeded in place.
// Decode scratch — including the decoders' name-intern tables, which hold
// only immutable content-addressed strings — and map storage are retained.
func (r *Resolver) Reset(cfg Config) error {
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	r.cfg = cfg
	r.rng.Seed(cfg.RandSeed)
	clear(r.cache)
	r.stats = Stats{}
	if err := r.host.HandleUDP(DNSPort, r.handleClient); err != nil {
		return fmt.Errorf("dnsres: bind: %w", err)
	}
	return nil
}

// Host returns the resolver's simnet host.
func (r *Resolver) Host() *simnet.Host { return r.host }

// Addr returns the resolver's address.
func (r *Resolver) Addr() ipv4.Addr { return r.host.Addr() }

// Stats returns a snapshot of resolver counters.
func (r *Resolver) Stats() Stats { return r.stats }

// CacheLen reports the number of live cache entries.
func (r *Resolver) CacheLen() int {
	n := 0
	now := r.clock.Now()
	for _, e := range r.cache {
		if now.Before(e.Expires) {
			n++
		}
	}
	return n
}

// Lookup resolves (name, qtype) and calls done with the answer RRs.
// Answers come from cache when fresh, otherwise from the delegated
// authoritative server with a randomised source port and TXID.
func (r *Resolver) Lookup(name string, qtype dnswire.Type, done func([]dnswire.RR, error)) {
	name = dnswire.CanonicalName(name)
	if rrs, ok := r.cached(name, qtype); ok {
		r.stats.CacheHits++
		done(rrs, nil)
		return
	}
	r.stats.CacheMisses++
	server, ok := r.delegationFor(name)
	if !ok {
		done(nil, fmt.Errorf("%w: no delegation for %q", ErrServFail, name))
		return
	}
	r.queryUpstream(server, name, qtype, r.cfg.Retries, func(m *dnswire.Message, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		rrs := r.acceptAnswer(name, qtype, m, done)
		if rrs == nil {
			return
		}
		done(rrs, nil)
	})
}

// acceptAnswer validates and caches a response; returns the answer RRs or
// nil after invoking done with an error.
func (r *Resolver) acceptAnswer(name string, qtype dnswire.Type, m *dnswire.Message, done func([]dnswire.RR, error)) []dnswire.RR {
	if m.Header.RCode == dnswire.RCodeNXDomain {
		done(nil, fmt.Errorf("%w: %s", ErrNXDomain, name))
		return nil
	}
	if m.Header.RCode != dnswire.RCodeNoError {
		done(nil, fmt.Errorf("%w: rcode %d", ErrServFail, m.Header.RCode))
		return nil
	}
	if r.cfg.ValidateDNSSEC {
		if err := validateAnswer(m.Answers); err != nil {
			r.stats.ValidationFails++
			done(nil, err)
			return nil
		}
	}
	var rrs []dnswire.RR
	for _, rr := range m.Answers {
		if rr.Type == dnswire.TypeRRSIG {
			continue
		}
		rrs = append(rrs, rr)
	}
	if len(rrs) == 0 {
		done(nil, fmt.Errorf("%w: empty answer", ErrServFail))
		return nil
	}
	r.insert(name, qtype, rrs)
	return rrs
}

// validateAnswer checks the RRSIG marker against a recomputed RRset hash:
// unsigned answers pass (as on the real Internet, where pool.ntp.org is
// unsigned); signed answers must carry a valid marker whose hash matches
// the records — which the fragment attack's rdata replacement breaks.
func validateAnswer(answers []dnswire.RR) error {
	var marker string
	for _, rr := range answers {
		if rr.Type == dnswire.TypeRRSIG {
			marker = string(rr.Raw)
		}
	}
	if marker == "" {
		return nil // unsigned
	}
	if !strings.HasPrefix(marker, dnsauth.SigValid) {
		return fmt.Errorf("%w: bogus signature", ErrBogusDNSSEC)
	}
	want := strings.TrimPrefix(marker, dnsauth.SigValid)
	if got := dnsauth.SignRRSet(answers); got != want {
		return fmt.Errorf("%w: signature does not cover the answer data", ErrBogusDNSSEC)
	}
	return nil
}

// cached returns fresh RRs with decremented TTLs.
func (r *Resolver) cached(name string, qtype dnswire.Type) ([]dnswire.RR, bool) {
	e, ok := r.cache[cacheKey{name, qtype}]
	if !ok {
		return nil, false
	}
	now := r.clock.Now()
	if !now.Before(e.Expires) {
		delete(r.cache, cacheKey{name, qtype})
		return nil, false
	}
	remaining := uint32(e.Expires.Sub(now) / time.Second)
	out := make([]dnswire.RR, len(e.RRs))
	copy(out, e.RRs)
	for i := range out {
		out[i].TTL = remaining
	}
	return out, true
}

// insert caches an RRset keyed by (name, qtype) using the smallest TTL.
func (r *Resolver) insert(name string, qtype dnswire.Type, rrs []dnswire.RR) {
	minTTL := rrs[0].TTL
	for _, rr := range rrs {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	ttl := time.Duration(minTTL) * time.Second
	if ttl < r.cfg.MinTTL {
		ttl = r.cfg.MinTTL
	}
	now := r.clock.Now()
	r.cache[cacheKey{name, qtype}] = CacheEntry{
		RRs:      append([]dnswire.RR(nil), rrs...),
		Inserted: now,
		Expires:  now.Add(ttl),
	}
}

// Peek returns the live cache entry for (name, qtype) without refreshing.
func (r *Resolver) Peek(name string, qtype dnswire.Type) (CacheEntry, bool) {
	e, ok := r.cache[cacheKey{dnswire.CanonicalName(name), qtype}]
	if !ok || !r.clock.Now().Before(e.Expires) {
		return CacheEntry{}, false
	}
	return e, true
}

// OverrideCache force-installs a cache entry, representing the outcome of a
// successful poisoning. The packet-level fragment-replacement pipeline is
// exercised end-to-end in internal/attack; experiments that need poisoning
// outcomes the fragment vector cannot shape byte-for-byte (notably the
// Chronos attack's 89-address response, §VI-C — the answer *count* lives in
// the first fragment, which the off-path attacker does not control) use
// this hook and document the substitution in EXPERIMENTS.md.
func (r *Resolver) OverrideCache(name string, qtype dnswire.Type, rrs []dnswire.RR, ttl time.Duration) {
	now := r.clock.Now()
	r.cache[cacheKey{dnswire.CanonicalName(name), qtype}] = CacheEntry{
		RRs:      append([]dnswire.RR(nil), rrs...),
		Inserted: now,
		Expires:  now.Add(ttl),
	}
}

// Evict removes a cache entry (tests and cache-eviction experiments).
func (r *Resolver) Evict(name string, qtype dnswire.Type) {
	delete(r.cache, cacheKey{dnswire.CanonicalName(name), qtype})
}

// delegationFor finds the authoritative server for name by longest-suffix
// match; "." (or "") is the default.
func (r *Resolver) delegationFor(name string) (ipv4.Addr, bool) {
	best := ""
	var addr ipv4.Addr
	found := false
	for apex, a := range r.cfg.Delegations {
		apex = dnswire.CanonicalName(apex)
		if apex == "" || name == apex || hasSuffixLabel(name, apex) {
			if len(apex) >= len(best) && (apex != "" || !found) {
				if apex == "" && best != "" {
					continue
				}
				best, addr, found = apex, a, true
			}
		}
	}
	return addr, found
}

func hasSuffixLabel(name, apex string) bool {
	return len(name) > len(apex) && name[len(name)-len(apex)-1] == '.' &&
		name[len(name)-len(apex):] == apex
}

// queryUpstream sends one upstream query with fresh random port and TXID,
// retrying on timeout.
func (r *Resolver) queryUpstream(server ipv4.Addr, name string, qtype dnswire.Type, retries int, done func(*dnswire.Message, error)) {
	r.stats.UpstreamQueries++
	txid := uint16(r.rng.Intn(1 << 16))
	var timer *simclock.Timer
	var port uint16
	handler := func(src ipv4.Addr, srcPort uint16, payload []byte) {
		// Challenge-response checks (RFC 5452): source address, source
		// port (implicit: this handler is bound to the random port), TXID
		// and question must all match. The fragmentation attack defeats
		// these because the real first fragment carries all of them.
		if src != server || srcPort != DNSPort {
			return
		}
		m := &r.rxMsg
		if err := r.dec.UnmarshalInto(m, payload); err != nil || !m.Header.QR || m.Header.ID != txid {
			return
		}
		if len(m.Questions) != 1 || dnswire.CanonicalName(m.Questions[0].Name) != name || m.Questions[0].Type != qtype {
			return
		}
		timer.Stop()
		r.host.UnhandleUDP(port)
		done(m, nil)
	}
	// Random source port in [1024, 65535]; re-draw on collision.
	for {
		port = uint16(1024 + r.rng.Intn(64512))
		if port == DNSPort {
			continue
		}
		if err := r.host.HandleUDP(port, handler); err == nil {
			break
		}
	}
	timer = r.clock.Schedule(r.cfg.QueryTimeout, func() {
		r.host.UnhandleUDP(port)
		if retries > 0 {
			r.queryUpstream(server, name, qtype, retries-1, done)
			return
		}
		done(nil, fmt.Errorf("%w: %s %s @%s", ErrTimeout, name, qtype, server))
	})
	q := dnswire.NewQuery(txid, name, qtype, false)
	wire, err := q.Marshal()
	if err != nil {
		timer.Stop()
		r.host.UnhandleUDP(port)
		done(nil, err)
		return
	}
	if _, err := r.host.SendUDP(server, port, DNSPort, wire); err != nil {
		timer.Stop()
		r.host.UnhandleUDP(port)
		done(nil, err)
	}
}

// handleClient serves stub queries arriving on port 53. RD=1 queries are
// resolved recursively; RD=0 queries are answered from cache only — the
// semantics the cache-snooping measurement (Section VIII-A) relies on.
func (r *Resolver) handleClient(src ipv4.Addr, srcPort uint16, payload []byte) {
	q := &r.cliMsg
	if err := r.cliDec.UnmarshalInto(q, payload); err != nil || q.Header.QR || len(q.Questions) != 1 {
		return
	}
	r.stats.ClientQueries++
	// Copy the header bits and question value out of the decode scratch:
	// the reply may fire from an asynchronous lookup callback, long after
	// the scratch has been reused (the question's name is interned, so the
	// value copy retains nothing from the wire buffer).
	txid, rd := q.Header.ID, q.Header.RD
	question := q.Questions[0]
	name := dnswire.CanonicalName(question.Name)
	qtype := question.Type

	reply := func(rrs []dnswire.RR, rcode dnswire.RCode) {
		resp := dnswire.Message{Header: dnswire.Header{ID: txid, QR: true, RD: rd}}
		resp.Questions = append(resp.Questions, question)
		resp.Header.RA = true
		resp.Header.RCode = rcode
		resp.Header.AD = r.cfg.ValidateDNSSEC && rcode == dnswire.RCodeNoError && len(rrs) > 0
		resp.Answers = rrs
		wire, err := resp.AppendMarshal(r.replyBuf[:0])
		if err != nil {
			return
		}
		r.replyBuf = wire
		_, _ = r.host.SendUDP(src, DNSPort, srcPort, wire)
	}

	if !rd {
		if rrs, ok := r.cached(name, qtype); ok {
			r.stats.CacheHits++
			reply(rrs, dnswire.RCodeNoError)
		} else {
			// Not cached and recursion not desired: empty NOERROR.
			reply(nil, dnswire.RCodeNoError)
		}
		return
	}

	r.Lookup(name, qtype, func(rrs []dnswire.RR, err error) {
		switch {
		case errors.Is(err, ErrNXDomain):
			reply(nil, dnswire.RCodeNXDomain)
		case err != nil:
			reply(nil, dnswire.RCodeServFail)
		default:
			reply(rrs, dnswire.RCodeNoError)
		}
	})
}
