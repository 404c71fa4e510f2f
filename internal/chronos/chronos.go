// Package chronos implements the Chronos NTP client of Deutsch, Rozen
// Schiff, Dolev and Schapira (NDSS'18; draft-schiff-ntp-chronos), the
// "provably secure" client the paper attacks through DNS:
//
//   - pool generation: the client queries DNS for the pool domain once an
//     hour for 24 hours and uses the union of all returned addresses as its
//     server pool (§VI of the paper);
//   - time sampling: each round samples m servers from the pool, discards
//     the d lowest and d highest offsets, and checks that the survivors
//     agree within ω and lie within the drift bound of the local clock;
//   - panic mode: when the checks fail, Chronos queries the whole pool,
//     trims the top and bottom thirds, and averages the middle third.
//
// Chronos's security guarantee holds while an attacker controls fewer than
// 2/3 of the pool. The paper's insight is that the *pool-generation* DNS
// queries are unauthenticated: one poisoned response carrying 89 attacker
// addresses with a TTL longer than 24 h dominates the pool whenever it
// lands before the 12th hourly query (N ≤ 11) — see AttackBound.
package chronos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dnstime/internal/dnsres"
	"dnstime/internal/ipv4"
	"dnstime/internal/ntpclient"
	"dnstime/internal/ntpwire"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
	"dnstime/internal/simrand"
)

// Config parameterises a Chronos client. Defaults follow the Internet
// draft: 24 hourly pool queries, m=15 samples, d=m/3 trimmed per side.
type Config struct {
	// PoolDomain is the DNS name queried for servers (pool.ntp.org).
	PoolDomain string
	// QueryInterval is the pool-generation cadence (default 1 h).
	QueryInterval time.Duration
	// QueryCount is the number of pool-generation queries (default 24).
	QueryCount int
	// SampleSize m is how many pool servers each round samples (default 15).
	SampleSize int
	// DiscardEach d is how many extreme offsets to trim per side
	// (default m/3).
	DiscardEach int
	// AgreementWindow ω bounds the spread of surviving samples
	// (default 25 ms).
	AgreementWindow time.Duration
	// DriftBound is the largest believable offset versus the local clock
	// before Chronos distrusts the sample set (default 100 ms).
	DriftBound time.Duration
	// PollInterval is the time-sampling cadence (default 5 min).
	PollInterval time.Duration
	// Seed drives sampling randomness (deterministic per seed).
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.PoolDomain == "" {
		c.PoolDomain = "pool.ntp.org"
	}
	if c.QueryInterval == 0 {
		c.QueryInterval = time.Hour
	}
	if c.QueryCount == 0 {
		c.QueryCount = 24
	}
	if c.SampleSize == 0 {
		c.SampleSize = 15
	}
	if c.DiscardEach == 0 {
		c.DiscardEach = c.SampleSize / 3
	}
	if c.AgreementWindow == 0 {
		c.AgreementWindow = 25 * time.Millisecond
	}
	if c.DriftBound == 0 {
		c.DriftBound = 100 * time.Millisecond
	}
	if c.PollInterval == 0 {
		c.PollInterval = 5 * time.Minute
	}
}

// RoundKind classifies a completed sampling round.
type RoundKind int

// Sampling round outcomes.
const (
	RoundNormal RoundKind = iota + 1
	RoundPanic
	RoundInconclusive
)

// String names the round kind.
func (k RoundKind) String() string {
	switch k {
	case RoundNormal:
		return "normal"
	case RoundPanic:
		return "panic"
	case RoundInconclusive:
		return "inconclusive"
	default:
		return "?"
	}
}

// Round records the outcome of one sampling round.
type Round struct {
	At      time.Time
	Kind    RoundKind
	Applied time.Duration // offset applied to the local clock (0 if none)
	Queried int
}

// Client is a Chronos NTP client.
type Client struct {
	host  *simnet.Host
	clock *simclock.Clock
	cfg   Config
	local *ntpclient.LocalClock
	stub  *dnsres.Stub
	rng   *rand.Rand

	pool      map[ipv4.Addr]struct{}
	poolOrder []ipv4.Addr
	queries   int
	running   bool
	genTicker *simclock.Ticker
	pollTick  *simclock.Ticker

	// Sampling-round scratch. Rounds are bursty (m queries, 2 s timeouts)
	// against a 5 min poll cadence, so per-query and per-round state is
	// pooled rather than re-allocated: a Chronos campaign run performs
	// thousands of rounds.
	qFree     []*pendingQuery
	rFree     []*roundState
	permBuf   []int
	sampleBuf []ipv4.Addr
	wire      []byte

	// PoolQueries counts completed pool-generation DNS transactions.
	PoolQueries int
	// Rounds logs sampling rounds.
	Rounds []Round
}

// New creates a Chronos client on host, using the resolver at resolverAddr
// and starting with the given local clock error.
func New(host *simnet.Host, cfg Config, resolverAddr ipv4.Addr, initialClockError time.Duration) *Client {
	cfg.applyDefaults()
	return &Client{
		host:  host,
		clock: host.Clock(),
		cfg:   cfg,
		local: ntpclient.NewLocalClock(host.Clock(), initialClockError),
		stub:  dnsres.NewStub(host, resolverAddr, cfg.Seed+7777),
		rng:   rand.New(simrand.New(cfg.Seed)),
		pool:  make(map[ipv4.Addr]struct{}),
	}
}

// LocalNow returns the client's local clock reading.
func (c *Client) LocalNow() time.Time { return c.local.Now() }

// ClockOffset returns local − true time.
func (c *Client) ClockOffset() time.Duration { return c.local.Offset() }

// PoolSize reports the current server-pool size.
func (c *Client) PoolSize() int { return len(c.poolOrder) }

// PoolContains reports whether addr is in the generated pool.
func (c *Client) PoolContains(addr ipv4.Addr) bool {
	_, ok := c.pool[addr]
	return ok
}

// Start begins pool generation and time sampling.
func (c *Client) Start() error {
	if c.running {
		return fmt.Errorf("chronos: already running")
	}
	c.running = true
	c.poolQuery()
	c.genTicker = c.clock.Tick(c.cfg.QueryInterval, func() {
		if c.queries < c.cfg.QueryCount {
			c.poolQuery()
		}
	})
	c.pollTick = c.clock.Tick(c.cfg.PollInterval, c.sampleRound)
	return nil
}

// Stop halts the client.
func (c *Client) Stop() {
	if !c.running {
		return
	}
	c.running = false
	c.genTicker.Stop()
	c.pollTick.Stop()
}

// poolQuery performs one pool-generation DNS transaction. Chronos makes no
// attempt to bound the number of addresses per response or to distrust
// long TTLs — the weakness of §VI-B.
func (c *Client) poolQuery() {
	c.queries++
	c.stub.LookupA(c.cfg.PoolDomain, func(addrs []ipv4.Addr, _ uint32, err error) {
		if err != nil || !c.running {
			return
		}
		c.PoolQueries++
		for _, a := range addrs {
			if _, ok := c.pool[a]; !ok {
				c.pool[a] = struct{}{}
				c.poolOrder = append(c.poolOrder, a)
			}
		}
	})
}

// sampleRound runs one Chronos time-sampling round.
func (c *Client) sampleRound() {
	if len(c.poolOrder) == 0 {
		return
	}
	m := c.cfg.SampleSize
	if m > len(c.poolOrder) {
		m = len(c.poolOrder)
	}
	sample := c.sampleServers(m)
	c.queryServers(sample, func(offsets []time.Duration) {
		c.finishRound(offsets)
	})
}

// sampleServers draws m distinct pool servers uniformly at random. The
// permutation is Fisher–Yates with exactly rand.Perm's draw sequence, built
// in a reused buffer so sampling stays allocation-free once warm; the
// returned slice is scratch, valid until the next round.
func (c *Client) sampleServers(m int) []ipv4.Addr {
	n := len(c.poolOrder)
	if cap(c.permBuf) < n {
		c.permBuf = make([]int, n)
	}
	perm := c.permBuf[:n]
	for i := 0; i < n; i++ {
		j := c.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	if cap(c.sampleBuf) < m {
		c.sampleBuf = make([]ipv4.Addr, m)
	}
	out := c.sampleBuf[:m]
	for i, j := range perm[:m] {
		out[i] = c.poolOrder[j]
	}
	return out
}

// roundState aggregates the offsets of one sampling round. Pooled: released
// back to the client once its done callback has run.
type roundState struct {
	offsets   []time.Duration
	remaining int
	done      func([]time.Duration)
}

// finish retires one outstanding query; the last one fires the round's done
// callback (which consumes the offsets synchronously) and recycles the round.
func (r *roundState) finish(c *Client) {
	r.remaining--
	if r.remaining != 0 {
		return
	}
	r.done(r.offsets)
	r.offsets = r.offsets[:0]
	r.done = nil
	c.rFree = append(c.rFree, r)
}

// pendingQuery is the in-flight state of one mode-3 query. Its two callbacks
// are built once, capture only the struct, and read its current fields, so
// recycled queries re-arm without allocating closures.
type pendingQuery struct {
	c        *Client
	rnd      *roundState
	srv      ipv4.Addr
	port     uint16
	t1       time.Time
	answered bool
	timer    simclock.Timer
	rx       ntpwire.Packet
	onPkt    func(src ipv4.Addr, srcPort uint16, payload []byte)
	onExpire func()
}

func (c *Client) acquireQuery() *pendingQuery {
	if n := len(c.qFree); n > 0 {
		pq := c.qFree[n-1]
		c.qFree[n-1] = nil
		c.qFree = c.qFree[:n-1]
		return pq
	}
	pq := &pendingQuery{c: c}
	pq.onPkt = func(src ipv4.Addr, _ uint16, payload []byte) {
		if src != pq.srv || pq.answered {
			return
		}
		if err := ntpwire.UnmarshalInto(&pq.rx, payload); err != nil ||
			pq.rx.Mode != ntpwire.ModeServer || pq.rx.IsKoD() {
			return
		}
		pq.answered = true
		pq.timer.Stop()
		pq.c.host.UnhandleUDP(pq.port)
		rnd := pq.rnd
		rnd.offsets = append(rnd.offsets, ntpwire.Offset(&pq.rx, pq.t1, pq.c.local.Now()))
		pq.c.releaseQuery(pq)
		rnd.finish(pq.c)
	}
	pq.onExpire = func() {
		if pq.answered {
			return
		}
		pq.c.host.UnhandleUDP(pq.port)
		rnd := pq.rnd
		pq.c.releaseQuery(pq)
		rnd.finish(pq.c)
	}
	return pq
}

func (c *Client) releaseQuery(pq *pendingQuery) {
	pq.rnd = nil
	c.qFree = append(c.qFree, pq)
}

// queryServers sends one mode-3 query to each server and collects offsets;
// non-responders are skipped after a 2 s timeout.
func (c *Client) queryServers(servers []ipv4.Addr, done func([]time.Duration)) {
	if len(servers) == 0 {
		return
	}
	var rnd *roundState
	if n := len(c.rFree); n > 0 {
		rnd = c.rFree[n-1]
		c.rFree[n-1] = nil
		c.rFree = c.rFree[:n-1]
	} else {
		rnd = &roundState{}
	}
	rnd.remaining = len(servers)
	rnd.done = done
	for _, srv := range servers {
		pq := c.acquireQuery()
		pq.rnd = rnd
		pq.srv = srv
		pq.port = c.host.AllocPort()
		pq.t1 = c.local.Now()
		pq.answered = false
		if err := c.host.HandleUDP(pq.port, pq.onPkt); err != nil {
			c.releaseQuery(pq)
			rnd.finish(c)
			continue
		}
		c.clock.ScheduleInto(&pq.timer, 2*time.Second, pq.onExpire)
		q := ntpwire.ClientPacket(pq.t1)
		c.wire = q.AppendMarshal(c.wire[:0])
		if _, err := c.host.SendUDP(pq.srv, pq.port, ntpwire.Port, c.wire); err != nil {
			pq.timer.Stop()
			c.host.UnhandleUDP(pq.port)
			c.releaseQuery(pq)
			rnd.finish(c)
		}
	}
}

// finishRound applies the Chronos selection algorithm to a sample.
func (c *Client) finishRound(offsets []time.Duration) {
	if len(offsets) == 0 {
		c.Rounds = append(c.Rounds, Round{At: c.clock.Now(), Kind: RoundInconclusive})
		return
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	d := c.cfg.DiscardEach
	if len(offsets) <= 2*d {
		d = (len(offsets) - 1) / 2
	}
	surv := offsets[d : len(offsets)-d]
	spread := surv[len(surv)-1] - surv[0]
	avg := average(surv)
	if spread <= c.cfg.AgreementWindow && absDur(avg) <= c.cfg.DriftBound {
		c.local.Step(avg)
		c.Rounds = append(c.Rounds, Round{At: c.clock.Now(), Kind: RoundNormal, Applied: avg, Queried: len(offsets)})
		return
	}
	c.panicMode()
}

// panicMode queries every pool server, trims the top and bottom thirds and
// steps to the average of the middle third.
func (c *Client) panicMode() {
	c.queryServers(c.poolOrder, func(offsets []time.Duration) {
		if len(offsets) == 0 {
			c.Rounds = append(c.Rounds, Round{At: c.clock.Now(), Kind: RoundInconclusive})
			return
		}
		sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
		d := len(offsets) / 3
		surv := offsets[d : len(offsets)-d]
		avg := average(surv)
		c.local.Step(avg)
		c.Rounds = append(c.Rounds, Round{At: c.clock.Now(), Kind: RoundPanic, Applied: avg, Queried: len(offsets)})
	})
}

func average(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// AttackBound computes the largest number N of honest pool-generation
// queries that may complete before the poisoning lands such that the
// attacker still controls at least 2/3 of the final pool (§VI-C):
// attacker wins while 2/3·(spoofed + perQuery·N) ≤ spoofed. With the
// paper's numbers (perQuery = 4 honest addresses per response, spoofed =
// 89 addresses in one poisoned response) the bound is N = 11 — the
// attacker has 12 tries in 24 hours.
func AttackBound(perQuery, spoofed int) int {
	if perQuery <= 0 {
		return -1
	}
	// Largest N with 2·(spoofed + perQuery·N) ≤ 3·spoofed.
	n := (spoofed/2 - 1) / perQuery
	for 2*(spoofed+perQuery*(n+1)) <= 3*spoofed {
		n++
	}
	for n >= 0 && 2*(spoofed+perQuery*n) > 3*spoofed {
		n--
	}
	return n
}

// ControlsPool reports whether `attacker` servers out of `total` meet the
// 2/3 control condition under which Chronos's guarantee vanishes.
func ControlsPool(attacker, total int) bool {
	return 3*attacker >= 2*total
}
