package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"dnstime/internal/campaign"
)

// golden.json holds, per workload and workload seed, every scenario's
// headline aggregate as recorded at the commit that defined the
// benchmark. Regenerate it only for a change that is meant to alter
// simulated results:
//
//	go run . --record-golden 0-31,97 > golden.json
//
//go:embed golden.json
var goldenJSON []byte

// goldenEntry is one scenario's recorded headline: the readable fields
// plus a digest over the full headline (every metric mean and its sample
// count included).
type goldenEntry struct {
	Runs        int     `json:"runs"`
	Errors      int     `json:"errors"`
	SuccessRate float64 `json:"success_rate_pct"`
	Digest      string  `json:"digest"`
}

// goldenFile maps workload → seed → scenario → recorded headline.
type goldenFile map[string]map[string]map[string]goldenEntry

func loadGolden() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// lookup returns the recorded headlines for a workload seed, or nil.
func (g goldenFile) lookup(workload string, seed int64) map[string]goldenEntry {
	return g[workload][strconv.FormatInt(seed, 10)]
}

// headlineOf reduces an aggregate to the values the correctness gate
// compares: runs, errors, success rate and every metric's mean.
func headlineOf(agg campaign.ScenarioAggregate) (goldenEntry, error) {
	type mean struct {
		Name    string  `json:"name"`
		Samples int     `json:"samples"`
		Mean    float64 `json:"mean"`
	}
	doc := struct {
		Scenario    string  `json:"scenario"`
		Runs        int     `json:"runs"`
		Errors      int     `json:"errors"`
		OutcomeRuns int     `json:"outcome_runs"`
		Successes   int     `json:"successes"`
		SuccessRate float64 `json:"success_rate_pct"`
		Means       []mean  `json:"means"`
	}{agg.Scenario, agg.Runs, agg.Errors, agg.OutcomeRuns, agg.Successes, agg.SuccessRate, nil}
	for _, m := range agg.Metrics {
		doc.Means = append(doc.Means, mean{m.Name, m.Samples, m.Mean})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return goldenEntry{}, fmt.Errorf("%s headline: %w", agg.Scenario, err)
	}
	sum := sha256.Sum256(b)
	return goldenEntry{
		Runs:        agg.Runs,
		Errors:      agg.Errors,
		SuccessRate: agg.SuccessRate,
		Digest:      hex.EncodeToString(sum[:12]),
	}, nil
}
