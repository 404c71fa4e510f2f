package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dnstime/internal/campaign"
	"dnstime/internal/core"
	"dnstime/internal/obs"
	"dnstime/internal/scenario"
	"dnstime/internal/serve"
)

// The serve workload is a closed loop of serveClients clients in lock-step
// rounds: each round the generator gives every client one JobSpec, the
// clients submit theirs in turn (each once the one before it is
// answered, so the engine's FIFO queue runs a round's jobs in the same
// order on every run), all read their streams to the terminal line, and
// the next round starts when all clients are done.
//
// Rounds come in blocks of blockRounds. A block's first round is shared:
// both clients submit one fresh spec, so the second submission coalesces
// onto the first (or, if the first has already finished, hits the cache). In the block's other rounds, blockRepeats of the client
// slots, chosen by the seed, repeat a spec completed in an earlier round
// (a cache hit) and the rest submit fresh specs. So every block of 8
// submissions holds 5 misses, 2 hits and 1 coalesced submission.
//
// These shares are a synthetic choice, not taken from recorded service
// traffic: no such traffic exists to derive them from. They make every
// path of the service (engine run, cache hit, coalescing) carry weight in
// every run. A throughput figure on this mix compares commits with each
// other; it says nothing about a real deployment's load.
const (
	serveClients = 2
	blockRounds  = 4
	blockRepeats = 2
	repeatWindow = 64 // repeats pick among this many most recent fresh specs
	layerSpecs   = 48 // fresh specs in the traced layer pass
)

// peak_rss_mb on serve is taken over the window's first rssRounds rounds,
// one peak per rssBlock rounds: the service keeps every finished job in
// its job table, so the resident set grows with the jobs served, and a
// fixed amount of work gives both sides of a comparison the same table.
// The window runs on past its seconds until rssRounds rounds are done.
const (
	rssRounds = 512
	rssBlock  = 16
)

// The serve window's figures are taken per segment of segmentRounds
// rounds and the median over segments is reported, so neighbour load on a
// shared host that slows a few segments does not move them. A segment is
// ten passes through the deck of fresh specs, so every segment runs the
// same scenarios and seed counts; its latencySegment engine-run jobs (5
// of every block's 8 submissions) put 16 jobs beyond its p90.
const (
	segmentRounds  = 128
	latencySegment = segmentRounds / blockRounds * (blockRounds*serveClients - blockRepeats - 1)
)

// serveScenarios, serveSeeds and serveMargins span the small JobSpecs the
// generator mints: 8–32 seeds of a short attack scenario. Fresh specs are
// dealt from a shuffled deck holding every scenario × seed count pair
// once, so each seed's jobs share the same scenario and size mix.
var (
	serveScenarios = []string{"boot", "runtime", "racemargin", "netsweep"}
	serveSeeds     = []int{8, 16, 24, 32}
	serveMargins   = []string{"-2s", "-1.2s", "-1.1s", "-500ms", "0s", "28ms"}
)

// jobKind is what the generator intends a submission to be.
type jobKind int

const (
	kindFresh  jobKind = iota // a spec never submitted before: runs on the engine
	kindRepeat                // a completed spec: served from the cache
	kindShared                // one fresh spec submitted by both clients in one round
)

// plannedJob is one client's submission in a round.
type plannedJob struct {
	spec campaign.JobSpec
	kind jobKind
}

// generator draws the serve workload's rounds from the workload seed.
type generator struct {
	rng     *rand.Rand
	base    int64
	minted  int
	deck    []int              // undealt scenario × seed-count pairs
	rounds  int                // rounds planned so far
	repeat  []bool             // the current block's repeat slots
	recent  []campaign.JobSpec // completed fresh specs, oldest first
	pending []campaign.JobSpec // fresh specs of the last round
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), base: baseSeed(seed)}
}

// fresh mints a spec no earlier round used: its seed range is its own.
func (g *generator) fresh() campaign.JobSpec {
	if len(g.deck) == 0 {
		g.deck = g.rng.Perm(len(serveScenarios) * len(serveSeeds))
	}
	card := g.deck[0]
	g.deck = g.deck[1:]
	base := g.base + int64(g.minted)*64
	g.minted++
	spec := campaign.JobSpec{
		Scenario: serveScenarios[card/len(serveSeeds)],
		Seeds:    serveSeeds[card%len(serveSeeds)],
		BaseSeed: &base,
	}
	if spec.Scenario == "racemargin" {
		spec.Params = scenario.Params{"margin": serveMargins[g.rng.Intn(len(serveMargins))]}
	}
	g.pending = append(g.pending, spec)
	return spec
}

// next plans the next round. Every spec of earlier rounds has completed
// by the time it is called.
func (g *generator) next() [serveClients]plannedJob {
	g.recent = append(g.recent, g.pending...)
	if over := len(g.recent) - repeatWindow; over > 0 {
		g.recent = g.recent[over:]
	}
	g.pending = g.pending[:0]
	slot := g.rounds % blockRounds
	g.rounds++
	var round [serveClients]plannedJob
	if slot == 0 {
		// Deal the block's repeat slots among its independent rounds.
		g.repeat = make([]bool, (blockRounds-1)*serveClients)
		for _, i := range g.rng.Perm(len(g.repeat))[:blockRepeats] {
			g.repeat[i] = true
		}
		spec := g.fresh()
		for i := range round {
			round[i] = plannedJob{spec, kindShared}
		}
		return round
	}
	for i := range round {
		if g.repeat[(slot-1)*serveClients+i] {
			round[i] = plannedJob{g.recent[g.rng.Intn(len(g.recent))], kindRepeat}
		} else {
			round[i] = plannedJob{g.fresh(), kindFresh}
		}
	}
	return round
}

// statusMismatches checks a round's submit statuses against the kinds the
// generator planned: a fresh spec must run on the engine (202), a repeat
// must be answered from the cache (200), and of a shared spec's
// submissions exactly one must run. It returns one message per failed
// submission.
func statusMismatches(round [serveClients]plannedJob, executed [serveClients]bool) []string {
	var out []string
	shared := 0
	for i, p := range round {
		switch {
		case p.kind == kindFresh && !executed[i]:
			out = append(out, fmt.Sprintf("client %d: fresh %s spec answered 200, want 202", i, p.spec.Scenario))
		case p.kind == kindRepeat && executed[i]:
			out = append(out, fmt.Sprintf("client %d: repeated %s spec ran on the engine, want a cache hit", i, p.spec.Scenario))
		case p.kind == kindShared && executed[i]:
			shared++
		}
	}
	if round[0].kind == kindShared && shared != 1 {
		out = append(out, fmt.Sprintf("shared %s spec ran on the engine %d times, want once", round[0].spec.Scenario, shared))
	}
	return out
}

// outcome is one completed submission as a client saw it.
type outcome struct {
	spec     campaign.JobSpec
	executed bool              // 202: the job ran on the engine (200: cache hit or coalesced)
	submitMs float64           // POST round trip
	firstMs  float64           // submit start to the first stream line
	totalMs  float64           // submit start to the terminal stream line
	agg      [sha256.Size]byte // digest of the terminal line's aggregate
}

// endpoint is one started service instance on a loopback listener.
type endpoint struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startEndpoint(workers int) (*endpoint, error) {
	srv, err := serve.New(serve.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &endpoint{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- e.hs.Serve(ln) }()
	return e, nil
}

// stop drains the service, closes the HTTP server and waits for it.
func (e *endpoint) stop(ctx context.Context) error {
	err := e.srv.Shutdown(ctx)
	if herr := e.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-e.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do waits until after is closed (nil: no wait), submits spec, closes
// posted (if not nil) once the submission is answered or has failed, and
// reads the job's stream to the terminal line.
func (c *client) do(spec campaign.JobSpec, after <-chan struct{}, posted chan<- struct{}) (outcome, error) {
	answered := sync.OnceFunc(func() {
		if posted != nil {
			close(posted)
		}
	})
	defer answered()
	out := outcome{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	if after != nil {
		<-after
	}
	start := time.Now()
	ms := func() float64 { return float64(time.Since(start)) / float64(time.Millisecond) }
	resp, err := c.hc.Post(c.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	var view struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	out.submitMs = ms()
	answered()
	switch resp.StatusCode {
	case http.StatusAccepted:
		out.executed = true
	case http.StatusOK:
	default:
		return out, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return out, fmt.Errorf("submit response: %w", err)
	}

	resp, err = c.hc.Get(c.url + "/jobs/" + view.ID + "/stream")
	if err != nil {
		return out, fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if out.firstMs == 0 {
			out.firstMs = ms()
		}
		var line struct {
			Type      string          `json:"type"`
			Aggregate json.RawMessage `json:"aggregate"`
			Error     string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return out, fmt.Errorf("stream line: %w", err)
		}
		switch line.Type {
		case "aggregate", "error":
			out.totalMs = ms()
			_, _ = io.Copy(io.Discard, resp.Body)
			if line.Error != "" || line.Type == "error" {
				return out, fmt.Errorf("job %s ended with error %q", view.ID, line.Error)
			}
			out.agg = sha256.Sum256(line.Aggregate)
			return out, nil
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("stream: %w", err)
	}
	return out, errors.New("stream ended without a terminal line")
}

// runServe runs the serve workload.
func runServe(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	phase0 := obs.PhaseSnapshot()
	var ep *endpoint
	setup, err := timeSetups(func(i int) error {
		// Each set-up starts a fresh service on an empty lab pool and runs
		// one warm-up job per generator scenario through it; the last
		// service stays up.
		if ep != nil {
			if err := ep.stop(ctx); err != nil {
				return err
			}
		}
		core.SetLabPooling(false)
		core.SetLabPooling(true)
		e, err := startEndpoint(o.workers)
		if err != nil {
			return err
		}
		ep = e
		base := warmupBase(o.seed, i)
		c := newClient(ep.url)
		defer c.close()
		for _, name := range serveScenarios {
			if _, err := c.do(campaign.JobSpec{Scenario: name, Seeds: o.workers, BaseSeed: &base}, nil, nil); err != nil {
				return fmt.Errorf("warm-up %s job: %w", name, err)
			}
		}
		return nil
	})
	if err != nil {
		if ep != nil {
			_ = ep.stop(ctx) // the set-up error is the one to report
		}
		return nil, err
	}

	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(ep.url)
	}
	gen := newGenerator(o.seed)
	var outs []outcome
	before, err := scrapeMetrics(clients[0])
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	phase1 := obs.PhaseSnapshot()
	rss := startRSSSampler()
	var peakRSS float64
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	segStart := start
	var segSeeds, segJobs int
	var seedRates, jobRates []float64 // per segment
	for rounds := 1; rounds <= rssRounds || time.Now().Before(deadline); rounds++ {
		round := gen.next()
		var wg sync.WaitGroup
		var res [serveClients]outcome
		var errs [serveClients]error
		// Clients submit in slot order, then read their streams at once.
		var after chan struct{}
		for i := range round {
			posted := make(chan struct{})
			wg.Add(1)
			go func(i int, after <-chan struct{}) {
				defer wg.Done()
				res[i], errs[i] = clients[i].do(round[i].spec, after, posted)
			}(i, after)
			after = posted
		}
		wg.Wait()
		var executed [serveClients]bool
		complete := true
		for i, err := range errs {
			rep.attempted++
			if err != nil {
				rep.fail(1, "round %d client %d: %v", rounds, i, err)
				complete = false
				continue
			}
			executed[i] = res[i].executed
			outs = append(outs, res[i])
			segJobs++
			if executed[i] {
				segSeeds += round[i].spec.Seeds
			}
		}
		if complete {
			for _, msg := range statusMismatches(round, executed) {
				rep.fail(1, "round %d %s", rounds, msg)
			}
		}
		if rounds%segmentRounds == 0 {
			secs := time.Since(segStart).Seconds()
			seedRates = append(seedRates, float64(segSeeds)/secs)
			jobRates = append(jobRates, float64(segJobs)/secs)
			segStart, segSeeds, segJobs = time.Now(), 0, 0
		}
		if rounds <= rssRounds && rounds%rssBlock == 0 {
			rss.cut()
		}
		if rounds == rssRounds {
			peakRSS = rss.finish()
		}
	}
	window := time.Since(start).Seconds()
	phase2 := obs.PhaseSnapshot()
	runtime.ReadMemStats(&ms1)
	after, err := scrapeMetrics(clients[0])
	for _, c := range clients {
		c.close()
	}
	if serr := ep.stop(ctx); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	// Every terminal aggregate must equal the Engine's for its spec.
	oracle := map[string][sha256.Size]byte{}
	var engineMs, hitMs, submitMs, queueMs, streamMs []float64
	var executedSeeds int64
	for _, out := range outs {
		key, err := out.spec.Key()
		if err != nil {
			return nil, err
		}
		want, ok := oracle[key]
		if !ok {
			b, err := engineAggregate(ctx, out.spec, o.workers)
			if err != nil {
				return nil, err
			}
			want = sha256.Sum256(b)
			oracle[key] = want
		}
		if out.agg != want {
			rep.fail(1, "served aggregate for %s (base seed %d) differs from Engine.Run", out.spec.Scenario, *out.spec.BaseSeed)
		}
		submitMs = append(submitMs, out.submitMs)
		if out.executed {
			executedSeeds += int64(out.spec.Seeds)
			engineMs = append(engineMs, out.totalMs)
			queueMs = append(queueMs, out.firstMs)
			streamMs = append(streamMs, out.totalMs-out.firstMs)
		} else {
			hitMs = append(hitMs, out.totalMs)
		}
	}
	if got := after.Engine.ExecutedRuns - before.Engine.ExecutedRuns; got != executedSeeds {
		rep.fail(1, "/metrics counts %d executed seeds, clients saw %d", got, executedSeeds)
	}
	jobs, hits := summarize(engineMs), summarize(hitMs)
	rep.info["engine_job_ms"] = jobs
	rep.info["hit_job_ms"] = hits
	rep.info["jobs"] = len(outs)
	rep.info["segment_seeds_per_s"] = seedRates
	if !o.trace {
		rep.set("setup_s", setup, "s")
		rep.set("peak_rss_mb", peakRSS, "MiB")
		rep.set("seeds_per_s", median(seedRates), "1/s")
		rep.set("jobs_per_s", median(jobRates), "1/s")
		rep.set("job_p50_ms", segmentPercentile(engineMs, latencySegment, 50), "ms")
		rep.set("job_p90_ms", segmentPercentile(engineMs, latencySegment, 90), "ms")
		return rep, nil
	}

	run := phaseDelta(phase1, phase2)
	lab := phaseDelta(phase0, phase2)
	rep.set("campaign.run_s", run[obs.PhaseRun], "s")
	rep.set("campaign.fold_s", run[obs.PhaseFold], "s")
	rep.set("campaign.busy_share", run[obs.PhaseRun]/(window*float64(o.workers)), "ratio")
	rep.set("campaign.alloc_bytes_per_seed", ratio(int64(ms1.TotalAlloc-ms0.TotalAlloc), executedSeeds), "B")
	rep.set("core.setup_s", lab[obs.PhaseSetup], "s")
	rep.set("core.reset_s", lab[obs.PhaseReset], "s")
	rep.set("serve.submit_ms_p50", median(submitMs), "ms")
	rep.set("serve.queue_ms_p50", median(queueMs), "ms")
	rep.set("serve.stream_ms_p50", median(streamMs), "ms")
	rep.set("serve.hit_p50_ms", hits.P50, "ms")
	rep.set("serve.hit_share", float64(len(hitMs))/float64(len(outs)), "ratio")
	rep.set("serve.coalesced", float64(after.Jobs.Coalesced-before.Jobs.Coalesced), "count")

	// The layer pass runs layerSpecs fresh specs from the seed's
	// generator directly on the Engine.
	var specs []campaign.JobSpec
	for g := newGenerator(o.seed); len(specs) < layerSpecs; {
		specs = append(specs, g.fresh())
	}
	refs := map[int][]byte{}
	times := newSeedTimes()
	pass := func(ctx context.Context, workers int, tracers tracerSource) ([]campaign.ScenarioAggregate, error) {
		if tracers == nil {
			tracers = times.factory
		}
		var aggs []campaign.ScenarioAggregate
		for _, spec := range specs {
			agg, err := campaign.NewEngine(spec.Options(campaign.WithWorkers(workers),
				campaign.WithTracerFactory(tracers(spec.Scenario)))...).Run(ctx, spec.Scenario)
			if err != nil {
				return nil, err
			}
			aggs = append(aggs, agg)
		}
		return aggs, nil
	}
	verify := func(rep *report, aggs []campaign.ScenarioAggregate, what string) {
		for i, agg := range aggs {
			rep.attempted += agg.Runs
			agg.PerRun = nil
			b, err := json.Marshal(agg)
			if err != nil {
				rep.fail(agg.Runs, "%s: spec %d: %v", what, i, err)
				continue
			}
			if ref, ok := refs[i]; !ok {
				refs[i] = b
			} else if !bytes.Equal(b, ref) {
				rep.fail(agg.Runs, "%s: spec %d aggregate differs from the first pass", what, i)
			}
		}
	}
	if _, err := layerPass(ctx, rep, o, pass, verify); err != nil {
		return nil, err
	}
	setScenarioMetrics(rep, times)
	setZero(rep, scanLayerMetrics...)
	return rep, nil
}

// engineAggregate is the terminal-line aggregate the service must serve
// for spec: Engine.Run's aggregate without per-run results.
func engineAggregate(ctx context.Context, spec campaign.JobSpec, workers int) ([]byte, error) {
	agg, err := campaign.NewEngine(spec.Options(campaign.WithWorkers(workers))...).Run(ctx, spec.Scenario)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", spec.Scenario, err)
	}
	agg.PerRun = nil
	return json.Marshal(agg)
}

// serveMetrics is the part of the service's /metrics document the
// benchmark reads.
type serveMetrics struct {
	Jobs struct {
		Coalesced int64 `json:"coalesced"`
	} `json:"jobs"`
	Engine struct {
		ExecutedRuns int64 `json:"executed_runs"`
	} `json:"engine"`
}

func scrapeMetrics(c *client) (serveMetrics, error) {
	var m serveMetrics
	resp, err := c.hc.Get(c.url + "/metrics")
	if err != nil {
		return m, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("metrics: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return m, nil
}
