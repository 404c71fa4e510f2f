package main

import (
	"context"
	"fmt"
	"time"

	"dnstime/internal/campaign"
	"dnstime/internal/measure"
	"dnstime/internal/obs"
	"dnstime/internal/population"
)

// passFunc runs a workload's fixed layer-pass work list at the given
// worker count, with per-seed tracers from tracers (nil: untraced).
type passFunc func(ctx context.Context, workers int, tracers tracerSource) ([]campaign.ScenarioAggregate, error)

// verifyFunc checks a pass's aggregates against the workload's reference,
// counting each seed as an attempted operation.
type verifyFunc func(rep *report, aggs []campaign.ScenarioAggregate, what string)

// untracedPasses is how many untraced passes time the layer work list;
// their median wall time is the base of every ns_per_* metric and of the
// tracing overhead.
const untracedPasses = 3

// Lab-pool counters the core package registers in obs.Default.
var (
	poolHits   = obs.Default.Counter("dnstime_labpool_hits_total", "")
	poolMisses = obs.Default.Counter("dnstime_labpool_misses_total", "")
)

// layerPass times the work list untraced, then runs it traced at the
// run's worker count and at one worker. Both traced passes must match the
// reference and give identical counts. It sets every per-layer metric the
// traced pass measures and returns the traced aggregates.
func layerPass(ctx context.Context, rep *report, o options, pass passFunc, verify verifyFunc) ([]campaign.ScenarioAggregate, error) {
	var walls []float64
	for i := 0; i < untracedPasses; i++ {
		start := time.Now()
		aggs, err := pass(ctx, o.workers, nil)
		walls = append(walls, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		verify(rep, aggs, fmt.Sprintf("untraced pass %d", i+1))
	}
	untraced := median(walls)

	traced := func(workers int) (*layerTotals, []campaign.ScenarioAggregate, float64, error) {
		tot := &layerTotals{}
		hits, misses := poolHits.Value(), poolMisses.Value()
		start := time.Now()
		aggs, err := pass(ctx, workers, func(string) func(int64) (obs.Tracer, error) {
			return func(int64) (obs.Tracer, error) { return newLayerTracer(tot, time.Now), nil }
		})
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, nil, 0, err
		}
		tot.counts.PoolHits = poolHits.Value() - hits
		tot.counts.PoolMisses = poolMisses.Value() - misses
		verify(rep, aggs, fmt.Sprintf("traced pass (%d workers)", workers))
		return tot, aggs, wall, nil
	}
	a, aggs, wall, err := traced(o.workers)
	if err != nil {
		return nil, err
	}
	b, _, _, err := traced(1)
	if err != nil {
		return nil, err
	}
	if a.counts != b.counts {
		rep.fail(1, "traced counts differ between %d workers %+v and 1 worker %+v", o.workers, a.counts, b.counts)
	}
	rep.info["layer_pass"] = map[string]any{"untraced_s": walls, "traced_s": wall, "counts": a.counts}

	c := a.counts
	rep.set("simclock.events", float64(c.Events), "count")
	rep.set("simclock.ns_per_event", perCount(untraced, c.Events), "ns")
	rep.set("simnet.sent", float64(c.Sent), "count")
	rep.set("simnet.delivered", float64(c.Delivered), "count")
	rep.set("simnet.dropped", float64(c.Dropped), "count")
	rep.set("simnet.ns_per_packet", perCount(untraced, c.Sent), "ns")
	rep.set("netem.drop_share", ratio(c.Dropped, c.Sent), "ratio")
	rep.set("ipv4.reassembled", float64(c.Reassembled), "count")
	rep.set("ipv4.badsum", float64(c.Badsum), "count")
	rep.set("attack.plant_rounds", float64(c.PlantRounds), "count")
	rep.set("dnsres.deliveries", float64(c.ResDeliver), "count")
	rep.set("core.pool_hits", float64(c.PoolHits), "count")
	rep.set("core.pool_misses", float64(c.PoolMisses), "count")

	var successes, outcomes int
	for _, agg := range aggs {
		successes += agg.Successes
		outcomes += agg.OutcomeRuns
	}
	rep.set("attack.success_share", ratio(int64(successes), int64(outcomes)), "ratio")

	var attributed time.Duration
	for comp := component(0); comp < nComponents; comp++ {
		if comp == compOther {
			continue
		}
		attributed += a.self[comp]
		rep.set(componentNames[comp]+".self_s", a.self[comp].Seconds(), "s")
	}
	rep.set("trace.overhead_share", wall/untraced-1, "ratio")
	rep.set("trace.unattributed_s", wall*float64(o.workers)-attributed.Seconds(), "s")
	return aggs, nil
}

// perCount is wall seconds per counted item in nanoseconds (0 when
// nothing was counted).
func perCount(seconds float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return seconds * 1e9 / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// scanLayers times direct calls to the population generators and the
// measurement methods the scan scenarios are built on, with the
// scenarios' default configs and seed offsets, and cross-checks each
// result against the traced pass's per-seed scenario results.
func scanLayers(rep *report, base int64, aggs []campaign.ScenarioAggregate) {
	perRun := map[string][]map[string]float64{}
	for _, agg := range aggs {
		for _, r := range agg.PerRun {
			perRun[agg.Scenario] = append(perRun[agg.Scenario], r.Metrics)
		}
	}
	var gen, scan, snoop time.Duration
	var probes int64
	for i := range perRun["ratelimit"] {
		seed := base + int64(i)
		start := time.Now()
		pool := population.GeneratePool(population.DefaultPoolConfig(), seed+42)
		resolvers := population.GenerateOpenResolvers(population.DefaultOpenResolverConfig(), seed+11)
		gen += time.Since(start)

		cfg := measure.DefaultScanConfig()
		start = time.Now()
		rl, err := measure.RateLimitScan(pool, cfg, seed+42)
		scan += time.Since(start)
		probes += int64(len(pool) * cfg.Queries)
		rep.attempted++
		if err != nil {
			rep.fail(1, "RateLimitScan seed %d: %v", seed, err)
		} else if want := perRun["ratelimit"]; want[i]["rate_limited"] != float64(rl.RateLimited) || want[i]["kod_senders"] != float64(rl.KoDSenders) {
			rep.fail(1, "RateLimitScan seed %d disagrees with the ratelimit scenario", seed)
		}

		start = time.Now()
		sn := measure.CacheSnoop(resolvers)
		snoop += time.Since(start)
		rep.attempted++
		if want := perRun["table4"]; i >= len(want) || want[i]["probed"] != float64(sn.Probed) || want[i]["verified"] != float64(sn.Verified) {
			rep.fail(1, "CacheSnoop seed %d disagrees with the table4 scenario", seed)
		}
	}
	rep.set("population.generate_s", gen.Seconds(), "s")
	rep.set("measure.ratelimit_s", scan.Seconds(), "s")
	rep.set("measure.snoop_s", snoop.Seconds(), "s")
	rep.set("measure.ns_per_probe", perCount(scan.Seconds(), probes), "ns")
}

// Per-layer metrics of layers a workload does not run; they read 0 there.
var (
	scanLayerMetrics = []metricName{
		{"population.generate_s", "s"}, {"measure.ratelimit_s", "s"},
		{"measure.snoop_s", "s"}, {"measure.ns_per_probe", "ns"},
	}
	serveLayerMetrics = []metricName{
		{"serve.submit_ms_p50", "ms"}, {"serve.queue_ms_p50", "ms"},
		{"serve.stream_ms_p50", "ms"}, {"serve.hit_p50_ms", "ms"},
		{"serve.hit_share", "ratio"}, {"serve.coalesced", "count"},
	}
)

type metricName struct{ name, unit string }

func setZero(rep *report, names ...metricName) {
	for _, n := range names {
		rep.set(n.name, 0, n.unit)
	}
}

// setScenarioMetrics reports every mix campaign's per-seed latency median
// and 99th percentile (0 for campaigns the workload does not run).
func setScenarioMetrics(rep *report, times *seedTimes) {
	counts := map[string]int{}
	for _, m := range []mix{attackMix, scanMix} {
		for _, c := range m.campaigns {
			name := c.name()
			ms := times.of(name)
			counts[name] = len(ms)
			rep.set("scenario."+name+".seed_p50_ms", percentileOf(ms, 50), "ms")
			rep.set("scenario."+name+".seed_p99_ms", percentileOf(ms, 99), "ms")
		}
	}
	rep.info["scenario_samples"] = counts
}
