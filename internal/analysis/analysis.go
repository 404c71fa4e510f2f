// Package analysis implements the paper's closed-form probability analysis
// of the run-time attack (Section V-B, Table III) and the expected-duration
// model behind Table II, plus Monte-Carlo cross-checks.
package analysis

import (
	"math"
	"math/rand"
	"time"

	"dnstime/internal/simrand"
)

// DefaultPRate is the measured fraction of pool.ntp.org servers that
// rate-limit (Section VII-A: 904 of 2432 ≈ 38%).
const DefaultPRate = 0.38

// P1 is the Scenario-1 success probability: the attacker removes servers
// one-after-another (discovered by querying the client), so all n targeted
// servers must rate-limit: P1(n) = p^n.
func P1(n int, p float64) float64 {
	return math.Pow(p, float64(n))
}

// P2 is the Scenario-2 success probability: the attacker knows all m
// upstream servers upfront and needs any n of them to rate-limit:
// P2(m,n) = Σ_{i=n..m} C(m,i) p^i (1−p)^{m−i}.
//
// (The paper's Table III prints the summand as pⁱ·p^{m−i}; the tabulated
// values correspond to the standard binomial tail with q = 1−p, which is
// what we compute.)
func P2(m, n int, p float64) float64 {
	if n > m {
		return 0
	}
	var sum float64
	for i := n; i <= m; i++ {
		sum += binomCoeff(m, i) * math.Pow(p, float64(i)) * math.Pow(1-p, float64(m-i))
	}
	return sum
}

func binomCoeff(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// RemovalThreshold is the number n of associations the attacker must remove
// for a client with m associations, per Table III: the attacker needs a
// strict majority of servers, but never more than m−2 (an ntpd-style client
// re-queries DNS once fewer than MINCLOCK=3 ⇒ m−2 removals suffice to
// trigger the lookup).
//
// Note: the paper's column header prints max(⌈m/2⌉, m−2), but its own row
// m=4 (n=3) matches the strict majority max(⌈(m+1)/2⌉, m−2), which is what
// we implement; every other row agrees with both.
func RemovalThreshold(m int) int {
	maj := (m + 2) / 2 // ⌈(m+1)/2⌉
	alt := m - 2
	if alt > maj {
		return alt
	}
	return maj
}

// TableIIIRow is one row of Table III.
type TableIIIRow struct {
	M  int
	N  int
	P1 float64 // percent
	P2 float64 // percent
}

// TableIII computes the full Table III for the given rate-limiting
// probability (paper: 0.38).
func TableIII(p float64) []TableIIIRow {
	rows := make([]TableIIIRow, 0, 9)
	for m := 1; m <= 9; m++ {
		n := RemovalThreshold(m)
		rows = append(rows, TableIIIRow{
			M:  m,
			N:  n,
			P1: 100 * P1(n, p),
			P2: 100 * P2(m, n, p),
		})
	}
	return rows
}

// MonteCarloP2 estimates P2(m,n) by sampling server populations — a
// cross-check on the closed form used in the property tests.
func MonteCarloP2(m, n int, p float64, trials int, seed int64) float64 {
	rng := rand.New(simrand.New(seed))
	hit := 0
	for t := 0; t < trials; t++ {
		limiting := 0
		for i := 0; i < m; i++ {
			if rng.Float64() < p {
				limiting++
			}
		}
		if limiting >= n {
			hit++
		}
	}
	return float64(hit) / float64(trials)
}

// DurationModel predicts the run-time attack duration for a client, per the
// mechanism of Section V-A2: each targeted association takes
// UnreachableAfter missed polls to demobilise; in Scenario P1 all targets
// are starved concurrently, while in Scenario P2 the attacker discovers and
// starves them one at a time (discovery adds one poll round per server as
// the client fails over); accepting the attacker's time then takes
// SelectMinSamples polls of the new servers.
type DurationModel struct {
	PollInterval     time.Duration
	UnreachableAfter int
	SelectMinSamples int
	ServersToRemove  int
}

// P1Duration is the expected duration with all upstream addresses known.
func (d DurationModel) P1Duration() time.Duration {
	removal := time.Duration(d.UnreachableAfter) * d.PollInterval
	accept := time.Duration(d.SelectMinSamples+1) * d.PollInterval
	return removal + accept
}

// P2Duration is the expected duration with one-at-a-time RefID discovery.
func (d DurationModel) P2Duration() time.Duration {
	perServer := time.Duration(d.UnreachableAfter+1) * d.PollInterval
	removal := time.Duration(d.ServersToRemove) * perServer
	accept := time.Duration(d.SelectMinSamples+1) * d.PollInterval
	return removal + accept
}
