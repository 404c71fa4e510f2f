package search

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"dnstime/internal/applog"
	"dnstime/internal/scenario"
)

// The synthetic monotone oracle every search test probes: a registered
// scenario whose per-seed outcome is a step function of the "x" param.
// Seed s flips at threshold + spread·((s mod 7 − 3)/3), so with
// spread=0 the success rate jumps 0→1 at the threshold and with
// spread>0 it ramps monotonically across threshold ± spread — both
// shapes any correct bisection must locate. "dir=falling" mirrors the
// step (success below the threshold); "mode" is an inert grid
// dimension.
var (
	oracleThreshold atomic.Int64 // millionths
	oracleRuns      atomic.Int64 // every executed oracle run
)

// oracleSucceeds is the oracle's ground truth, shared by the registered
// scenario and the tests' direct assertions.
func oracleSucceeds(x, threshold, spread float64, seed int64, falling bool) bool {
	th := threshold + spread*(float64(seed%7)-3)/3
	if falling {
		return x <= th
	}
	return x >= th
}

func init() {
	scenario.Register(scenario.Scenario{
		Name:      "t-search-step",
		Title:     "Search-test monotone step oracle",
		PaperRef:  "§0",
		Impl:      "search_test.step",
		CLI:       "none",
		ParamKeys: []string{"x", "mode", "spread", "dir"},
		Order:     1100,
		Run: func(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
			oracleRuns.Add(1)
			x, err := cfg.Params.Float("x", 0)
			if err != nil {
				return scenario.Result{}, err
			}
			spread, err := cfg.Params.Float("spread", 0)
			if err != nil {
				return scenario.Result{}, err
			}
			th := float64(oracleThreshold.Load()) / fractionScale
			ok := oracleSucceeds(x, th, spread, seed, cfg.Params.Str("dir", "") == "falling")
			return scenario.Result{Success: scenario.Bool(ok)}, nil
		},
	})
}

// unitAxis is the tests' standard axis: x over [0, 1] at 0.01.
func unitAxis() Axis {
	return Axis{Key: "x", Kind: KindFraction, Lo: 0, Hi: 1000000, Step: 10000}
}

// ticks parses a formatted bound back into native units.
func ticks(t *testing.T, k Kind, s string) int64 {
	t.Helper()
	v, err := ParseValue(k, s)
	if err != nil {
		t.Fatalf("bound %q does not parse: %v", s, err)
	}
	return v
}

// TestBisectLocatesThreshold is the property test: for thresholds
// planted across the bracket, the bisection must return the unique
// one-step bracket stranding the threshold (fail at Lo, success at Hi),
// within the ⌈log₂(width/resolution)⌉ probe budget.
func TestBisectLocatesThreshold(t *testing.T) {
	ax := unitAxis()
	for _, th := range []int64{5000, 10000, 135000, 415000, 500000, 720000, 995000, 1000000} {
		oracleThreshold.Store(th)
		res, err := Bisect(context.Background(), ax, Options{Scenario: "t-search-step", Seeds: 4})
		if err != nil {
			t.Fatalf("th=%d: %v", th, err)
		}
		if len(res.Probes) > res.Budget || res.Budget != ax.Budget() {
			t.Errorf("th=%d: %d probes, budget %d (axis budget %d)", th, len(res.Probes), res.Budget, ax.Budget())
		}
		lo, hi := ticks(t, ax.Kind, res.Lo), ticks(t, ax.Kind, res.Hi)
		if hi-lo != ax.Step {
			t.Errorf("th=%d: bracket [%s, %s] is %d wide, want one step", th, res.Lo, res.Hi, hi-lo)
		}
		// The step oracle succeeds exactly at x ≥ th, so the threshold
		// must satisfy lo < th ≤ hi.
		if !(lo < th && th <= hi) {
			t.Errorf("th=%d: bracket [%s, %s] does not strand the threshold", th, res.Lo, res.Hi)
		}
	}
}

// TestBisectFallingAxis mirrors the property test for a falling axis
// (success below the threshold): the bracket then has success at Lo and
// failure at Hi, stranding the threshold as lo ≤ th < hi.
func TestBisectFallingAxis(t *testing.T) {
	ax := unitAxis()
	ax.Falling = true
	for _, th := range []int64{0, 135000, 500000, 995000} {
		oracleThreshold.Store(th)
		res, err := Bisect(context.Background(), ax, Options{
			Scenario: "t-search-step", Seeds: 4,
			Params: scenario.Params{"dir": "falling"},
		})
		if err != nil {
			t.Fatalf("th=%d: %v", th, err)
		}
		lo, hi := ticks(t, ax.Kind, res.Lo), ticks(t, ax.Kind, res.Hi)
		if !(lo <= th && th < hi) || len(res.Probes) > res.Budget {
			t.Errorf("th=%d: bracket [%s, %s] in %d probes does not strand the threshold",
				th, res.Lo, res.Hi, len(res.Probes))
		}
	}
}

// TestBisectTargetRate: with a per-seed spread the success rate ramps
// instead of stepping, and the bisection must bracket where the rate
// crosses the requested target — measured against the oracle's ground
// truth, not the probes' own claims.
func TestBisectTargetRate(t *testing.T) {
	ax := unitAxis()
	oracleThreshold.Store(500000)
	const seeds, spread = 16, 0.3
	rate := func(xTick int64) float64 {
		n := 0
		for s := int64(1); s <= seeds; s++ {
			if oracleSucceeds(float64(xTick)/fractionScale, 0.5, spread, s, false) {
				n++
			}
		}
		return float64(n) / seeds
	}
	for _, target := range []float64{0.25, 0.5, 0.9} {
		res, err := Bisect(context.Background(), ax, Options{
			Scenario: "t-search-step", Seeds: seeds, Target: target,
			Params: scenario.Params{"spread": "0.3"},
		})
		if err != nil {
			t.Fatalf("target=%v: %v", target, err)
		}
		lo, hi := ticks(t, ax.Kind, res.Lo), ticks(t, ax.Kind, res.Hi)
		if !(rate(lo) < target && rate(hi) >= target) {
			t.Errorf("target=%v: bracket [%s, %s] has rates %.3f / %.3f — does not strand the crossing",
				target, res.Lo, res.Hi, rate(lo), rate(hi))
		}
	}
}

// TestBisectDeterministicAcrossWorkers: the marshalled result is
// byte-identical at any probe worker count.
func TestBisectDeterministicAcrossWorkers(t *testing.T) {
	ax := unitAxis()
	oracleThreshold.Store(415000)
	marshal := func(workers int) string {
		res, err := Bisect(context.Background(), ax, Options{
			Scenario: "t-search-step", Seeds: 8, Workers: workers,
			Params: scenario.Params{"spread": "0.2"},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial := marshal(1)
	if parallel := marshal(4); parallel != serial {
		t.Errorf("workers=4 output differs from workers=1:\n%s\nvs\n%s", parallel, serial)
	}
}

// TestBisectRejectsBadInputs: option and axis validation fail before
// any campaign runs.
func TestBisectRejectsBadInputs(t *testing.T) {
	ax := unitAxis()
	cases := map[string]struct {
		ax  Axis
		opt Options
	}{
		"no scenario":      {ax, Options{}},
		"unknown scenario": {ax, Options{Scenario: "sundial"}},
		"target 0":         {ax, Options{Scenario: "t-search-step", Target: -1}},
		"target 1":         {ax, Options{Scenario: "t-search-step", Target: 1}},
		"target NaN":       {ax, Options{Scenario: "t-search-step", Target: math.NaN()}},
		"bad axis":         {Axis{Key: "x"}, Options{Scenario: "t-search-step"}},
		"no outcome":       {ax, Options{Scenario: "table3", Params: nil}},
	}
	for name, c := range cases {
		if name == "no outcome" {
			// table3 takes no "x" param; use an axis over a key it has
			// no way to accept — the engine rejects it before running.
			c.ax = Axis{Key: "x", Kind: KindFraction, Lo: 0, Hi: 10, Step: 5}
		}
		if _, err := Bisect(context.Background(), c.ax, c.opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBisectCheckpointResume: a completed search's checkpoint answers a
// re-run without executing a single campaign, a torn checkpoint resumes
// from its valid prefix, and the resumed output is byte-identical.
func TestBisectCheckpointResume(t *testing.T) {
	ax := unitAxis()
	oracleThreshold.Store(135000)
	path := filepath.Join(t.TempDir(), "search.jsonl")
	opt := Options{Scenario: "t-search-step", Seeds: 4, Checkpoint: path, Resume: path}

	before := oracleRuns.Load()
	res, err := Bisect(context.Background(), ax, opt)
	if err != nil {
		t.Fatal(err)
	}
	executed := oracleRuns.Load() - before
	if want := int64(len(res.Probes) * 4); executed != want {
		t.Fatalf("first search executed %d runs, want %d", executed, want)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	// Full resume: zero campaigns.
	before = oracleRuns.Load()
	res2, err := Bisect(context.Background(), ax, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load() - before; n != 0 {
		t.Errorf("full resume executed %d runs, want 0", n)
	}
	if got, _ := json.Marshal(res2); string(got) != string(want) {
		t.Errorf("resumed output differs:\n%s\nvs\n%s", got, want)
	}
	for _, p := range res2.Probes {
		if !p.Cached {
			t.Errorf("resumed probe %s not marked cached", p.Value)
		}
	}

	// Torn resume: keep the header and two probe lines plus a torn
	// fragment; only the missing probes re-run.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint too short to tear: %q", data)
	}
	torn := strings.Join(lines[:3], "") + `{"key":"torn`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	before = oracleRuns.Load()
	res3, err := Bisect(context.Background(), ax, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load() - before; n != int64((len(res.Probes)-2)*4) {
		t.Errorf("torn resume executed %d runs, want %d", n, (len(res.Probes)-2)*4)
	}
	if got, _ := json.Marshal(res3); string(got) != string(want) {
		t.Errorf("torn-resume output differs:\n%s\nvs\n%s", got, want)
	}
}

// TestBisectResumeRejectsMismatch: a checkpoint only answers the search
// its header describes, and a bare -resume against a missing file is an
// error (only the checkpoint+resume same-path workflow starts fresh).
func TestBisectResumeRejectsMismatch(t *testing.T) {
	ax := unitAxis()
	oracleThreshold.Store(500000)
	path := filepath.Join(t.TempDir(), "search.jsonl")
	if _, err := Bisect(context.Background(), ax, Options{
		Scenario: "t-search-step", Seeds: 2, Checkpoint: path,
	}); err != nil {
		t.Fatal(err)
	}
	bad := map[string]Options{
		"different target": {Scenario: "t-search-step", Seeds: 2, Resume: path, Target: 0.75},
		"different fast":   {Scenario: "t-search-step", Seeds: 2, Resume: path, Fast: true},
		"different params": {Scenario: "t-search-step", Seeds: 2, Resume: path, Params: scenario.Params{"spread": "0.1"}},
	}
	for name, opt := range bad {
		if _, err := Bisect(context.Background(), ax, opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	missing := Options{Scenario: "t-search-step", Seeds: 2,
		Resume: filepath.Join(t.TempDir(), "missing.jsonl")}
	if _, err := Bisect(context.Background(), ax, missing); err == nil {
		t.Error("missing resume file accepted")
	}
}

// TestSearchResumeRevisionGate: search checkpoints carry the writing
// build's VCS revision and refuse cross-revision resumes unless forced,
// mirroring the campaign engine's gate.
func TestSearchResumeRevisionGate(t *testing.T) {
	defer func(orig func() string) { applog.BuildRevision = orig }(applog.BuildRevision)
	ax := unitAxis()
	oracleThreshold.Store(500000)
	path := filepath.Join(t.TempDir(), "search.jsonl")

	applog.BuildRevision = func() string { return "aaaa00000000" }
	if _, err := Bisect(context.Background(), ax, Options{
		Scenario: "t-search-step", Seeds: 2, Checkpoint: path,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr := strings.SplitN(string(data), "\n", 2)[0]; !strings.Contains(hdr, `"revision":"aaaa00000000"`) {
		t.Fatalf("header lacks the revision stamp: %s", hdr)
	}

	applog.BuildRevision = func() string { return "bbbb11111111" }
	if _, err := Bisect(context.Background(), ax, Options{
		Scenario: "t-search-step", Seeds: 2, Resume: path,
	}); err == nil || !strings.Contains(err.Error(), "revision") {
		t.Errorf("cross-revision resume not refused: %v", err)
	}
	if _, err := Bisect(context.Background(), ax, Options{
		Scenario: "t-search-step", Seeds: 2, Resume: path, Force: true,
	}); err != nil {
		t.Errorf("forced cross-revision resume failed: %v", err)
	}

	// Unknown current build: nothing to compare, resume allowed.
	applog.BuildRevision = func() string { return "unknown" }
	if _, err := Bisect(context.Background(), ax, Options{
		Scenario: "t-search-step", Seeds: 2, Resume: path,
	}); err != nil {
		t.Errorf("resume under unknown current revision refused: %v", err)
	}
}
