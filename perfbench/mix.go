package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"dnstime/internal/campaign"
	"dnstime/internal/core"
	"dnstime/internal/obs"
	"dnstime/internal/scenario"
)

// mix is a campaign workload: a fixed list of full-size campaigns, each
// run over the same seeds every round through campaign.Engine.
type mix struct {
	name      string
	campaigns []part
}

// part is one campaign of a mix: a scenario, its seed count and, for a
// variant, its params and the label that names it. Seed counts are sized
// so every campaign costs about the same host time (≈0.1 s at one worker
// for attack, ≈0.2 s for scan, on a 2-core Xeon), so each campaign
// carries a like share of seeds_per_s and the job latency percentiles
// sample one population rather than landing on the boundary between two
// scenarios' campaign times.
type part struct {
	scenario string
	seeds    int
	params   scenario.Params // nil: the scenario's defaults
	label    string          // a variant's name; "" names the campaign after its scenario
}

// name identifies the campaign in golden.json and in the scenario.*
// metrics.
func (p part) name() string {
	if p.label != "" {
		return p.label
	}
	return p.scenario
}

// attackMix covers the paper's attacks (§V–VI): the lab pool, long
// virtual horizons on a shallow event heap, IPv4 fragmentation and
// reassembly, DNS poisoning and the NTP/Chronos clients. boot-lossy runs
// the boot attack over a path that loses 2% of packets: boot passes the
// run's tracer to its lab, so the netem layer's drops are counted there.
var attackMix = mix{
	name: "attack",
	campaigns: []part{
		{scenario: "boot", seeds: 640}, {scenario: "runtime", seeds: 112},
		{scenario: "table1", seeds: 96}, {scenario: "table2", seeds: 8},
		{scenario: "chronos", seeds: 20}, {scenario: "netsweep", seeds: 112},
		{scenario: "racemargin", seeds: 52},
		{scenario: "boot", seeds: 640, params: scenario.Params{"loss": "0.02"}, label: "boot-lossy"},
	},
}

// scanMix covers the measurement studies (§VII–VIII): 200k-resolver
// population generation and the 2432-server rate-limit scan's deep event
// heap, with no lab pool and no fragments. nsfrag costs ~16 µs a seed,
// so its campaign stays the cheapest one.
var scanMix = mix{
	name: "scan",
	campaigns: []part{
		{scenario: "ratelimit", seeds: 2}, {scenario: "table4", seeds: 7},
		{scenario: "fig6", seeds: 6}, {scenario: "fig5", seeds: 112},
		{scenario: "nsfrag", seeds: 4096}, {scenario: "table5", seeds: 176},
		{scenario: "shared", seeds: 896}, {scenario: "fig7", seeds: 448},
	},
}

// seeds is the number of seeded runs in one round of the mix.
func (m mix) seeds() int {
	n := 0
	for _, c := range m.campaigns {
		n += c.seeds
	}
	return n
}

// warmup is the mix reduced to n seeds per campaign.
func (m mix) warmup(n int) mix {
	w := mix{name: m.name}
	for _, c := range m.campaigns {
		c.seeds = n
		w.campaigns = append(w.campaigns, c)
	}
	return w
}

// baseSeed maps a workload seed to the first campaign seed of a round;
// workload seeds address disjoint campaign seed ranges.
func baseSeed(seed int64) int64 { return seed << 20 }

// warmupBase is the first campaign seed of set-up warm-up runs, outside
// every measured range.
func warmupBase(seed int64, i int) int64 { return baseSeed(seed) + 1<<19 + int64(i)*64 }

// tracerSource gives the per-seed tracer factory for a named campaign
// (nil: no tracer at all).
type tracerSource func(name string) func(int64) (obs.Tracer, error)

// round runs every scenario of the mix once over the round's seeds and
// returns the aggregates and each campaign's host time in seconds, in mix
// order.
func (m mix) round(ctx context.Context, base int64, workers int, tracers tracerSource) ([]campaign.ScenarioAggregate, []float64, error) {
	aggs := make([]campaign.ScenarioAggregate, 0, len(m.campaigns))
	walls := make([]float64, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		name := c.name()
		opts := []campaign.Option{
			campaign.WithSeeds(c.seeds),
			campaign.WithBaseSeed(base),
			campaign.WithWorkers(workers),
			campaign.WithParams(c.params),
		}
		if tracers != nil {
			opts = append(opts, campaign.WithTracerFactory(tracers(name)))
		}
		start := time.Now()
		agg, err := campaign.NewEngine(opts...).Run(ctx, c.scenario)
		walls = append(walls, time.Since(start).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("%s campaign: %w", name, err)
		}
		aggs = append(aggs, agg)
	}
	return aggs, walls, nil
}

// checker is the correctness gate for campaign aggregates. The first
// aggregate of each scenario must match the headline recorded in
// golden.json for the workload seed, or, for a seed without a recording,
// an aggregate computed at one worker before timing starts. Every later
// aggregate must then be byte-identical to the first.
type checker struct {
	golden map[string]goldenEntry
	ref    map[string][]byte
}

// check compares the aggregate of the campaign called name with its
// reference and records failures in rep.
func (c *checker) check(rep *report, name string, agg campaign.ScenarioAggregate, what string) {
	rep.attempted += agg.Runs
	if agg.Errors > 0 {
		rep.fail(agg.Errors, "%s: %d seeds of %s returned an error", what, agg.Errors, name)
	}
	b, err := json.Marshal(agg)
	if err != nil {
		rep.fail(agg.Runs-agg.Errors, "%s: %s aggregate: %v", what, name, err)
		return
	}
	if ref, ok := c.ref[name]; ok {
		if !bytes.Equal(b, ref) {
			rep.fail(agg.Runs-agg.Errors, "%s: %s aggregate differs from the reference", what, name)
		}
		return
	}
	want, ok := c.golden[name]
	if !ok {
		rep.fail(agg.Runs-agg.Errors, "%s: no reference for %s", what, name)
		return
	}
	got, err := headlineOf(agg)
	if err != nil || got != want {
		rep.fail(agg.Runs-agg.Errors, "%s: %s headline %+v, recorded %+v", what, name, got, want)
		return
	}
	c.ref[name] = b
}

// checkAll checks a round's aggregates, given in mix order.
func (c *checker) checkAll(rep *report, m mix, aggs []campaign.ScenarioAggregate, what string) {
	for i, agg := range aggs {
		c.check(rep, m.campaigns[i].name(), agg, what)
	}
}

// newChecker loads the recorded headlines for the workload seed, or
// computes one-worker reference aggregates when none are recorded.
func newChecker(ctx context.Context, m mix, o options) (*checker, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	c := &checker{golden: g.lookup(m.name, o.seed), ref: map[string][]byte{}}
	if c.golden != nil {
		return c, nil
	}
	aggs, _, err := m.round(ctx, baseSeed(o.seed), 1, nil)
	if err != nil {
		return nil, fmt.Errorf("reference round: %w", err)
	}
	for i, agg := range aggs {
		name := m.campaigns[i].name()
		b, err := json.Marshal(agg)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		c.ref[name] = b
	}
	return c, nil
}

// runMix runs a campaign workload: repeated set-up, then whole rounds
// until the measured seconds are spent, then (with --trace 1) the traced
// layer pass.
func runMix(ctx context.Context, o options, m mix) (*report, error) {
	rep := newReport()
	phase0 := obs.PhaseSnapshot()
	setup, err := timeSetups(func(i int) error {
		// Each set-up starts from an empty lab pool and fills it with one
		// warm-up seed per worker of every scenario.
		core.SetLabPooling(false)
		core.SetLabPooling(true)
		_, _, err := m.warmup(o.workers).round(ctx, warmupBase(o.seed, i), o.workers, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	chk, err := newChecker(ctx, m, o)
	if err != nil {
		return nil, err
	}
	rep.info["golden"] = chk.golden != nil

	times := newSeedTimes()
	var walls []float64 // seconds per round
	var jobMs []float64 // milliseconds per campaign, in round order
	// campaignMs[i] holds campaign i's milliseconds, one per round.
	campaignMs := make([][]float64, len(m.campaigns))
	base := baseSeed(o.seed)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	phase1 := obs.PhaseSnapshot()
	rss := startRSSSampler()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	windowStart := time.Now()
	for len(walls) == 0 || time.Now().Before(deadline) {
		aggs, campaigns, err := m.round(ctx, base, o.workers, times.factory)
		if err != nil {
			rss.finish()
			return nil, err
		}
		var wall float64
		for i, s := range campaigns {
			wall += s
			jobMs = append(jobMs, s*1000)
			campaignMs[i] = append(campaignMs[i], s*1000)
		}
		walls = append(walls, wall)
		rss.cut()
		chk.checkAll(rep, m, aggs, fmt.Sprintf("round %d", len(walls)))
	}
	window := time.Since(windowStart).Seconds()
	peakRSS := rss.finish()
	phase2 := obs.PhaseSnapshot()
	runtime.ReadMemStats(&ms1)

	seedsPerRound := float64(m.seeds())
	rounds := float64(len(walls))
	jobs := summarize(jobMs)
	rep.info["round_s"] = walls
	rep.info["job_ms"] = jobs
	if !o.trace {
		rep.set("setup_s", setup, "s")
		rep.set("peak_rss_mb", peakRSS, "MiB")
		// Every round runs the same campaigns, so each figure is taken
		// from medians over rounds: neighbour load on a shared host that
		// slows a few rounds does not move it.
		round := median(walls)
		rep.set("seeds_per_s", seedsPerRound/round, "1/s")
		rep.set("jobs_per_s", float64(len(m.campaigns))/round, "1/s")
		// Job latency: each campaign's median time over rounds, and the
		// percentiles over the mix's campaigns.
		typical := make([]float64, len(campaignMs))
		for i, ms := range campaignMs {
			typical[i] = median(ms)
		}
		rep.set("job_p50_ms", percentileOf(typical, 50), "ms")
		rep.set("job_p90_ms", percentileOf(typical, 90), "ms")
		return rep, nil
	}

	run := phaseDelta(phase1, phase2)
	lab := phaseDelta(phase0, phase2)
	seeds := seedsPerRound * rounds
	rep.set("campaign.run_s", run[obs.PhaseRun], "s")
	rep.set("campaign.fold_s", run[obs.PhaseFold], "s")
	rep.set("campaign.busy_share", run[obs.PhaseRun]/(window*float64(o.workers)), "ratio")
	rep.set("campaign.alloc_bytes_per_seed", float64(ms1.TotalAlloc-ms0.TotalAlloc)/seeds, "B")
	rep.set("core.setup_s", lab[obs.PhaseSetup], "s")
	rep.set("core.reset_s", lab[obs.PhaseReset], "s")
	setScenarioMetrics(rep, times)

	pass := func(ctx context.Context, workers int, tracers tracerSource) ([]campaign.ScenarioAggregate, error) {
		aggs, _, err := m.round(ctx, base, workers, tracers)
		return aggs, err
	}
	verify := func(rep *report, aggs []campaign.ScenarioAggregate, what string) {
		chk.checkAll(rep, m, aggs, what)
	}
	aggs, err := layerPass(ctx, rep, o, pass, verify)
	if err != nil {
		return nil, err
	}
	if m.name == "scan" {
		scanLayers(rep, base, aggs)
	} else {
		setZero(rep, scanLayerMetrics...)
	}
	setZero(rep, serveLayerMetrics...)
	return rep, nil
}

// recordGolden writes golden.json for the campaign workloads at seeds.
func recordGolden(ctx context.Context, workers int, seeds []int64, w io.Writer) error {
	g := goldenFile{}
	for _, m := range []mix{attackMix, scanMix} {
		g[m.name] = map[string]map[string]goldenEntry{}
		for _, seed := range seeds {
			aggs, _, err := m.round(ctx, baseSeed(seed), workers, nil)
			if err != nil {
				return err
			}
			entries := map[string]goldenEntry{}
			for i, agg := range aggs {
				name := m.campaigns[i].name()
				if agg.Errors > 0 {
					return fmt.Errorf("%s seed %d: %d seeds of %s failed", m.name, seed, agg.Errors, name)
				}
				if entries[name], err = headlineOf(agg); err != nil {
					return err
				}
			}
			g[m.name][fmt.Sprint(seed)] = entries
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
