// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured values). Each benchmark reports the headline numbers as
// custom metrics so `go test -bench` output doubles as the results table.
// The measurement benchmarks run through the scenario registry
// (dnstime.RunScenario), exercising the same entry points as
// `experiments campaigns`.
package dnstime_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"dnstime"
	"dnstime/internal/attack"
	"dnstime/internal/chronos"
	"dnstime/internal/core"
	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
)

// campaignSeeds sizes the campaign benchmarks: the acceptance workload is
// 64 seeds (DESIGN.md §4).
const campaignSeeds = 64

// benchCampaignTableI runs a 64-seed Table I campaign at the given worker
// count and reports runs/sec plus the aggregate headline numbers. Compare
// BenchmarkCampaignTableI against BenchmarkCampaignTableISerial for the
// parallel speedup (>2× expected on a multi-core runner).
func benchCampaignTableI(b *testing.B, workers int) {
	profiles := dnstime.AllProfiles()
	eng := dnstime.NewEngine(dnstime.WithSeeds(campaignSeeds), dnstime.WithWorkers(workers))
	var vulnerable int
	for i := 0; i < b.N; i++ {
		agg, err := eng.Run(context.Background(), "table1")
		if err != nil {
			b.Fatal(err)
		}
		vulnerable = 0
		for _, m := range agg.Metrics {
			if strings.HasPrefix(m.Name, "boot/") && m.Min == 1 {
				vulnerable++
			}
		}
	}
	b.ReportMetric(float64(vulnerable), "boot-vulnerable")
	b.ReportMetric(float64(b.N*campaignSeeds*len(profiles))/b.Elapsed().Seconds(), "runs/sec")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkCampaignTableI runs the 64-seed Table I campaign on all cores.
func BenchmarkCampaignTableI(b *testing.B) {
	b.ReportAllocs()
	benchCampaignTableI(b, runtime.GOMAXPROCS(0))
}

// BenchmarkCampaignTableISerial is the same campaign at -workers 1: the
// serial baseline the parallel engine must beat.
func BenchmarkCampaignTableISerial(b *testing.B) {
	b.ReportAllocs()
	benchCampaignTableI(b, 1)
}

// BenchmarkCampaignRuntime fans the §IV-B run-time attack (ntpd, P1)
// across 64 seeds through the Engine and reports runs/sec and the
// aggregate statistics.
func BenchmarkCampaignRuntime(b *testing.B) {
	b.ReportAllocs()
	var agg dnstime.ScenarioAggregate
	eng := dnstime.NewEngine(dnstime.WithSeeds(campaignSeeds))
	for i := 0; i < b.N; i++ {
		var err error
		agg, err = eng.Run(context.Background(), "runtime")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(agg.SuccessRate, "success-pct")
	b.ReportMetric(float64(b.N*campaignSeeds)/b.Elapsed().Seconds(), "runs/sec")
}

// BenchmarkCampaignAllScenarios fans every registered scenario out across
// 4 seeds each (fast populations) through the Engine — the whole-registry
// campaign smoke run CI executes at -benchtime 1x so no scenario can rot
// out of the engine.
func BenchmarkCampaignAllScenarios(b *testing.B) {
	b.ReportAllocs()
	eng := dnstime.NewEngine(dnstime.WithSeeds(4), dnstime.WithFast(true))
	for i := 0; i < b.N; i++ {
		for _, sc := range dnstime.Scenarios() {
			agg, err := eng.Run(context.Background(), sc.Name)
			if err != nil {
				b.Fatalf("%s: %v", sc.Name, err)
			}
			if agg.Errors > 0 {
				b.Fatalf("%s: %d errored runs", sc.Name, agg.Errors)
			}
		}
	}
	b.ReportMetric(float64(len(dnstime.Scenarios())), "scenarios")
}

// BenchmarkNetProfileSweep fans the boot-time attack across every netem
// path profile (the netsweep scenario, DESIGN.md §8) and reports the
// per-profile success rate — attack robustness against path conditions
// as a benchmark metric.
func BenchmarkNetProfileSweep(b *testing.B) {
	b.ReportAllocs()
	eng := dnstime.NewEngine(dnstime.WithSeeds(8))
	totalRuns := 0
	for i := 0; i < b.N; i++ {
		agg, err := eng.Run(context.Background(), "netsweep")
		if err != nil {
			b.Fatal(err)
		}
		if agg.Errors > 0 {
			b.Fatalf("%d errored runs", agg.Errors)
		}
		totalRuns += agg.Runs
		for _, m := range agg.Metrics {
			if strings.HasPrefix(m.Name, "shifted/") {
				b.ReportMetric(100*m.Mean, strings.TrimPrefix(m.Name, "shifted/")+"-pct")
			}
		}
	}
	b.ReportMetric(float64(totalRuns*len(dnstime.NetProfileNames()))/b.Elapsed().Seconds(), "attacks/sec")
}

// BenchmarkEngineStream measures the streaming front end: a 64-seed
// boot-time campaign consumed result by result in completion order. The
// per-seed channel costs nothing measurable next to the runs themselves —
// streaming and blocking campaigns have the same throughput.
func BenchmarkEngineStream(b *testing.B) {
	b.ReportAllocs()
	eng := dnstime.NewEngine(dnstime.WithSeeds(campaignSeeds))
	for i := 0; i < b.N; i++ {
		st, err := eng.Stream(context.Background(), "boot")
		if err != nil {
			b.Fatal(err)
		}
		streamed := 0
		for range st.Results() {
			streamed++
		}
		agg, err := st.Wait()
		if err != nil || streamed != campaignSeeds || agg.Runs != campaignSeeds {
			b.Fatalf("streamed %d runs, aggregate %d, err %v", streamed, agg.Runs, err)
		}
	}
	b.ReportMetric(float64(b.N*campaignSeeds)/b.Elapsed().Seconds(), "runs/sec")
}

// BenchmarkTableIClientMatrix regenerates Table I: boot-time attack runs
// against all seven client profiles plus the run-time applicability
// classification.
func BenchmarkTableIClientMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := dnstime.TableI(dnstime.LabConfig{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		boot, run := 0, 0
		for _, r := range rows {
			if r.BootTime == core.Yes {
				boot++
			}
			if r.RunTime == core.Yes {
				run++
			}
		}
		b.ReportMetric(float64(boot), "boot-vulnerable")
		b.ReportMetric(float64(run), "runtime-vulnerable")
	}
}

// BenchmarkTableIIAttackDuration regenerates Table II: the four run-time
// attack duration experiments (NTPd P2/P1, systemd[paper: "openntpd"] P1,
// chrony P1).
func BenchmarkTableIIAttackDuration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := dnstime.TableII(dnstime.LabConfig{Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Duration.Minutes(), r.Client+"/"+r.Scenario.String()+"-min")
		}
	}
}

// BenchmarkTableIIIProbabilities regenerates Table III (closed form plus a
// Monte-Carlo cross-check).
func BenchmarkTableIIIProbabilities(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := dnstime.TableIII(dnstime.DefaultPRate)
		if len(rows) != 9 {
			b.Fatal("bad table")
		}
		b.ReportMetric(rows[3].P2, "P2(m=4)-pct") // paper: 15.7
		b.ReportMetric(rows[5].P1, "P1(m=6)-pct") // paper: 2.1
	}
}

// scenarioMetric runs a registered scenario once and returns its metric
// map. The run seed offsets match what the pre-registry benchmarks used,
// except Figure 6, which now deliberately reads TTLs from the same
// population as table4 (200k resolvers at seed+11; it used to draw its
// own 100k population at seed+12).
func scenarioMetric(b *testing.B, name string, seed int64) dnstime.ScenarioResult {
	b.Helper()
	res, err := dnstime.RunScenario(context.Background(), name, seed, dnstime.ScenarioConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTableIVResolverCache regenerates Table IV: RD=0 cache snooping
// over the open-resolver population, via the table4 scenario.
func BenchmarkTableIVResolverCache(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := scenarioMetric(b, "table4", int64(i))
		b.ReportMetric(res.Metrics["cached_pct/pool.ntp.org IN A"], "poolA-cached-pct") // paper: 69.41
		b.ReportMetric(res.Metrics["verified"], "verified")
	}
}

// BenchmarkTableVAdStudy regenerates Table V: the ad-network client study,
// via the table5 scenario.
func BenchmarkTableVAdStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := scenarioMetric(b, "table5", int64(i))
		b.ReportMetric(res.Metrics["tiny_pct/ALL"], "ALL-tiny-pct")     // paper: 64.00
		b.ReportMetric(res.Metrics["any_pct/ALL"], "ALL-any-pct")       // paper: 90.99
		b.ReportMetric(res.Metrics["dnssec_min_pct"], "dnssec-min-pct") // paper: 19.14
		b.ReportMetric(res.Metrics["dnssec_max_pct"], "dnssec-max-pct") // paper: 28.94
	}
}

// BenchmarkFigure5FragmentCDF regenerates Figure 5: the CDF of minimum
// fragment sizes over the popular-domain nameserver population, via the
// fig5 scenario.
func BenchmarkFigure5FragmentCDF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := scenarioMetric(b, "fig5", int64(i))
		b.ReportMetric(res.Metrics["cdf_pct/292B"], "cdf-292-pct")            // paper: 7.05
		b.ReportMetric(res.Metrics["cdf_pct/548B"], "cdf-548-pct")            // paper: 83.2
		b.ReportMetric(res.Metrics["frag_nodnssec_pct"], "frag-nodnssec-pct") // paper: 7.66
	}
}

// BenchmarkFigure6TTLDistribution regenerates Figure 6: remaining TTLs of
// cached pool records (uniform on [0,150]), via the fig6 scenario.
func BenchmarkFigure6TTLDistribution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := scenarioMetric(b, "fig6", int64(i))
		b.ReportMetric(res.Metrics["ttl_samples"], "ttl-samples")
		b.ReportMetric(res.Metrics["ttl_mean_s"], "ttl-mean-s")     // uniform on [0,150] → ≈75
		b.ReportMetric(res.Metrics["ttl_median_s"], "ttl-median-s") // ≈75
	}
}

// BenchmarkFigure7TimingSideChannel regenerates Figure 7: the t_first−t_avg
// latency-difference distribution and its lack of a clean threshold, via
// the fig7 scenario.
func BenchmarkFigure7TimingSideChannel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := scenarioMetric(b, "fig7", int64(i))
		b.ReportMetric(res.Metrics["samples"], "samples")
		b.ReportMetric(res.Metrics["clamped_under"]+res.Metrics["clamped_over"], "clamped-tails")
	}
}

// BenchmarkRateLimitScan regenerates §VII-A: the live 2432-server pool scan
// (33% KoD, 38% stop responding), via the ratelimit scenario.
func BenchmarkRateLimitScan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := scenarioMetric(b, "ratelimit", int64(i))
		b.ReportMetric(res.Metrics["rate_limited_pct"], "ratelimited-pct") // paper: 38
		b.ReportMetric(res.Metrics["kod_pct"], "kod-pct")                  // paper: 33
	}
}

// BenchmarkNameserverFragScan regenerates §VII-B: 16/30 pool nameservers
// fragment below 548 B, none signed, via the nsfrag scenario.
func BenchmarkNameserverFragScan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := scenarioMetric(b, "nsfrag", int64(i))
		b.ReportMetric(res.Metrics["frag_below_548"], "frag-below-548") // paper: 16
		b.ReportMetric(res.Metrics["dnssec"], "dnssec")                 // paper: 0
	}
}

// BenchmarkSharedResolverStudy regenerates §VIII-B3: the 13.8% of web-client
// resolvers whose queries the attacker can trigger, via the shared
// scenario.
func BenchmarkSharedResolverStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := scenarioMetric(b, "shared", int64(i))
		b.ReportMetric(res.Metrics["triggerable_pct"], "triggerable-pct") // paper: 13.8
	}
}

// BenchmarkChronosAttackBound regenerates §VI-C: the N ≤ 11 bound and a full
// pool-generation poisoning run, via the chronos scenario.
func BenchmarkChronosAttackBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := dnstime.ChronosAttackBound(4, 89); n != 11 {
			b.Fatalf("bound = %d", n)
		}
		res := scenarioMetric(b, "chronos", int64(i)+9)
		b.ReportMetric(res.Metrics["pool_size"], "pool-size")
		b.ReportMetric(boolMetric(res.Success != nil && *res.Success), "shifted")
	}
}

// BenchmarkRuntimeShift500s regenerates §V-A2: the −500 s run-time shift
// against an ntpd-profile client.
func BenchmarkRuntimeShift500s(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := dnstime.RunRuntimeAttack(dnstime.ProfileNTPd, dnstime.ScenarioP1, dnstime.LabConfig{Seed: int64(i) + 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ClockOffset.Seconds(), "final-offset-s") // paper: −500
		b.ReportMetric(boolMetric(res.Succeeded), "succeeded")
	}
}

// BenchmarkBootTimePlanting regenerates §IV-A: the 30-second planting loop
// needs at most 5 spoofed fragments per 150 s TTL window and stays low
// volume.
func BenchmarkBootTimePlanting(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lab := dnstime.MustNewLab(dnstime.LabConfig{Seed: int64(i) + 11})
		campaign := lab.StartPoisonCampaign(30*time.Second, 0)
		lab.Clock.RunFor(150 * time.Second)
		campaign.Stop()
		b.ReportMetric(float64(campaign.Rounds), "rounds-per-ttl") // paper: ≤5
		b.ReportMetric(float64(lab.Eve.InjectedPackets), "packets-per-ttl")
	}
}

// BenchmarkPoisoningPipeline measures the §III unit pipeline: template →
// malicious twin → spoofed fragments with fixed checksum.
func BenchmarkPoisoningPipeline(b *testing.B) {
	b.ReportAllocs()
	// Build a representative padded pool response template once.
	q := dnswire.NewQuery(1, "pool.ntp.org", dnswire.TypeA, true)
	r := dnswire.NewResponse(q)
	for i := 0; i < 8; i++ {
		r.Answers = append(r.Answers, dnswire.RR{
			Name: "pool.ntp.org", Type: dnswire.TypeA, TTL: 150,
			Addr: ipv4.Addr{10, 0, 0, byte(i + 1)},
		})
	}
	r.Additional = append(r.Additional, dnswire.RR{
		Name: "pool.ntp.org", Type: dnswire.TypeTXT, TTL: 0,
		Text: string(make([]byte, 0, 0)) + paddingText(240),
	})
	template, err := r.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	evil := []ipv4.Addr{{6, 6, 6, 6}}
	ipids := []uint16{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frags, err := attack.BuildSpoofedFragments(attack.PoisonPlan{
			NS:       core.NSAddr,
			Resolver: core.ResolverAddr,
			Template: template, Malicious: evil, MTU: 68, IPIDs: ipids,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(frags) != len(ipids) {
			b.Fatal("wrong fragment count")
		}
	}
}

func paddingText(n int) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = 'p'
	}
	return string(buf)
}

// BenchmarkAblationDefragTimeout measures attack-relevant defrag-cache
// behaviour across reassembly timeouts (DESIGN.md §5): how long a planted
// fragment survives awaiting the real first fragment.
func BenchmarkAblationDefragTimeout(b *testing.B) {
	b.ReportAllocs()
	timeouts := []time.Duration{30 * time.Second, 60 * time.Second, 120 * time.Second}
	for i := 0; i < b.N; i++ {
		for _, to := range timeouts {
			clk := simclock.New(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
			r := ipv4.NewReassembler(clk, ipv4.ReassemblyPolicy{Timeout: to, MaxPerPair: 64, Overlap: ipv4.FirstWins})
			frag := &ipv4.Packet{
				Src: core.NSAddr, Dst: core.ResolverAddr, ID: 1,
				Proto: ipv4.ProtoUDP, FragOff: 48,
				Payload: make([]byte, 64),
			}
			r.Add(frag)
			clk.RunFor(to - time.Second)
			alive := r.PendingBuckets(core.NSAddr, core.ResolverAddr, ipv4.ProtoUDP)
			b.ReportMetric(float64(alive), "alive-at-"+to.String())
		}
	}
}

// BenchmarkAblationIPIDAllocator compares poisoning success across IPID
// allocation strategies (sequential vs per-destination vs random): the
// probe-and-extrapolate predictor only works against sequential counters.
func BenchmarkAblationIPIDAllocator(b *testing.B) {
	b.ReportAllocs()
	allocators := []struct {
		name  string
		alloc func() ipv4.IDAllocator
	}{
		{"sequential", func() ipv4.IDAllocator { return &ipv4.SequentialAllocator{} }},
		{"perdest", func() ipv4.IDAllocator { return &ipv4.PerDestAllocator{} }},
		{"random", func() ipv4.IDAllocator { return &ipv4.RandomAllocator{State: 99} }},
	}
	for i := 0; i < b.N; i++ {
		for _, tc := range allocators {
			// Probe stream as the attacker would see it.
			a := tc.alloc()
			probeDst := core.AttackerAddr
			var probes []uint16
			for p := 0; p < 4; p++ {
				probes = append(probes, a.Next(core.NSAddr, probeDst))
			}
			window := attack.PredictIPIDs(probes, 1, 16)
			// The next allocation toward the victim.
			actual := a.Next(core.NSAddr, core.ResolverAddr)
			hit := 0.0
			for _, id := range window {
				if id == actual {
					hit = 1
					break
				}
			}
			b.ReportMetric(hit, "hit-"+tc.name)
		}
	}
}

// BenchmarkChronosSamplingRounds measures the Chronos client's sampling
// round over a large pool (throughput of the core algorithm).
func BenchmarkChronosSamplingRounds(b *testing.B) {
	b.ReportAllocs()
	bound := chronos.AttackBound
	for i := 0; i < b.N; i++ {
		// Sweep the attack bound across response capacities (DESIGN.md §5
		// ablation: tolerable N vs addresses per spoofed response).
		for _, spoofed := range []int{20, 45, 89, 120} {
			n := bound(4, spoofed)
			b.ReportMetric(float64(n), "maxN-"+itoa(spoofed))
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
