// Campaign: fan experiments out across independent seeds on all cores
// through the Engine and report aggregate statistics — success rates with
// 95% Wilson intervals and per-metric distributions. Aggregates are
// byte-identical at any worker count; only the wall-clock time changes.
//
// One API covers every use:
//
//  1. Engine.Run blocks for the aggregate of any registered scenario
//     (every table, figure and scan — `dnstime.Scenarios()` lists them);
//  2. Engine.Stream yields per-seed results in completion order while the
//     seed-order aggregate folds behind it — and the context cancels a
//     campaign cleanly (workers drain, the partial aggregate is marked);
//  3. params make attack variants (any client profile, target shift,
//     Chronos knobs) ordinary campaign runs — no separate entry point;
//  4. WithCheckpoint/WithResume persist completed seeds as JSONL so an
//     interrupted campaign picks up where it left off, byte-identically.
package main

import (
	"context"
	"fmt"
	"log"

	"dnstime"
)

func main() {
	ctx := context.Background()

	// 1. Any registered scenario: the Table IV cache-snooping study over
	// 16 seeds, aggregated metric by metric.
	agg, err := dnstime.NewEngine(
		dnstime.WithSeeds(16),
		dnstime.WithFast(true), // 20k resolvers per run instead of 200k
	).Run(ctx, "table4")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(agg.Render())

	// 2. A parameterised attack campaign, streamed: the boot-time attack
	// against a chrony client with a −300 s target shift, 32 seeds.
	// Results arrive in completion order; the aggregate stays seed-order
	// deterministic.
	st, err := dnstime.NewEngine(
		dnstime.WithSeeds(32),
		dnstime.WithParam("client", "chrony"),
		dnstime.WithParam("offset", "-300s"),
		// Workers defaults to GOMAXPROCS; each run owns its Lab and
		// virtual clock, so the fan-out is embarrassingly parallel.
	).Stream(ctx, "boot")
	if err != nil {
		log.Fatal(err)
	}
	shown := 0
	for res := range st.Results() {
		if shown < 4 {
			shifted := res.Success != nil && *res.Success
			fmt.Printf("  seed %d: shifted=%t offset=%.0fs tts=%.0fs (completion order)\n",
				res.Seed, shifted, res.Metrics["offset_s"], res.Metrics["tts_s"])
		}
		shown++
	}
	attack, err := st.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(attack)

	// 3. The whole Table I client matrix: every seed runs the boot-time
	// attack against all seven profiles, and the aggregate keys each
	// client's outcome and time-to-shift by profile name.
	table1, err := dnstime.NewEngine(dnstime.WithSeeds(8)).Run(ctx, "table1")
	if err != nil {
		log.Fatal(err)
	}
	means := map[string]float64{}
	for _, m := range table1.Metrics {
		means[m.Name] = m.Mean
	}
	fmt.Println("Table I over 8 seeds per client:")
	for _, pu := range dnstime.AllProfiles() {
		name := pu.Profile.Name
		fmt.Printf("  %-18s boot %5.1f%%  mean time-to-shift %4.0fs\n",
			name, 100*means["boot/"+name], means["tts_s/"+name])
	}
}
