package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dnstime/internal/core"
	"dnstime/internal/obs"
)

// tracedCampaign runs the named scenario over seeds 0..seeds-1 with an
// in-memory Chrome tracer per seed and returns each seed's finalised
// trace bytes plus the marshalled aggregate. Lab pooling is set as
// requested for the duration of the campaign and restored before
// returning.
func tracedCampaign(t *testing.T, name string, seeds, workers int, pooled bool) (map[int64][]byte, string) {
	t.Helper()
	core.SetLabPooling(pooled)
	defer core.SetLabPooling(true)
	var mu sync.Mutex
	bufs := map[int64]*bytes.Buffer{}
	agg := marshalAgg(t, name,
		WithSeeds(seeds), WithBaseSeed(0), WithWorkers(workers), WithFast(true),
		WithTracerFactory(func(seed int64) (obs.Tracer, error) {
			buf := &bytes.Buffer{}
			mu.Lock()
			bufs[seed] = buf
			mu.Unlock()
			return obs.NewChrome(buf, seed), nil
		}),
	)
	out := map[int64][]byte{}
	for seed, buf := range bufs {
		out[seed] = buf.Bytes()
	}
	if len(out) != seeds {
		t.Fatalf("traced %s campaign: %d traces, want %d", name, len(out), seeds)
	}
	return out, agg
}

// TestTraceDeterminism is the trace byte-identity contract from the
// observability design, for the boot attack and for the scenarios that
// build their own labs per grid cell (netsweep, racemargin): every seed
// records a non-empty trace; for a fixed seed the trace has exactly the
// same bytes at any worker count and whether the lab was recycled from
// the pool or built fresh; and tracing leaves the aggregate
// byte-identical to an untraced run.
func TestTraceDeterminism(t *testing.T) {
	const seeds = 3
	for _, name := range []string{"boot", "netsweep", "racemargin"} {
		name := name
		t.Run(name, func(t *testing.T) {
			ref, agg := tracedCampaign(t, name, seeds, 1, true)
			for seed, b := range ref {
				checkTrace(t, seed, b)
			}
			untraced := marshalAgg(t, name,
				WithSeeds(seeds), WithBaseSeed(0), WithWorkers(1), WithFast(true))
			if agg != untraced {
				t.Errorf("traced aggregate differs from untraced run:\n%s\nvs\n%s", agg, untraced)
			}
			for _, alt := range []struct {
				desc    string
				workers int
				pooled  bool
			}{
				{"workers=4 pooled", 4, true},
				{"workers=1 fresh", 1, false},
				{"workers=4 fresh", 4, false},
			} {
				got, _ := tracedCampaign(t, name, seeds, alt.workers, alt.pooled)
				for seed, want := range ref {
					if !bytes.Equal(got[seed], want) {
						t.Errorf("%s: seed %d trace differs from workers=1 pooled reference", alt.desc, seed)
					}
				}
			}
		})
	}
}

// checkTrace asserts that b is a non-empty Chrome trace array whose
// events all carry the required fields and the seed as their pid.
func checkTrace(t *testing.T, seed int64, b []byte) {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("seed %d: trace is not a JSON array: %v", seed, err)
	}
	if len(events) == 0 {
		t.Fatalf("seed %d: no trace events", seed)
	}
	for _, e := range events {
		for _, key := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("seed %d: event %v missing %q", seed, e, key)
			}
		}
		if e["pid"] != float64(seed) {
			t.Fatalf("seed %d: event pid = %v, want %d", seed, e["pid"], seed)
		}
	}
}

// TestTraceDir exercises the file-backed trace path: WithTraceDir writes
// one valid Chrome trace file per executed seed, named after the scenario
// and seed.
func TestTraceDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	eng := NewEngine(WithSeeds(2), WithBaseSeed(0), WithWorkers(2), WithFast(true),
		WithTraceDir(dir))
	if _, err := eng.Run(context.Background(), "boot"); err != nil {
		t.Fatalf("traced campaign: %v", err)
	}
	for seed := 0; seed < 2; seed++ {
		path := filepath.Join(dir, fmt.Sprintf("boot-seed%d.trace.json", seed))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("trace file: %v", err)
		}
		var events []map[string]any
		if err := json.Unmarshal(b, &events); err != nil {
			t.Fatalf("%s: not a JSON array: %v", path, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: no events", path)
		}
	}
}

// TestTracerFactoryError pins the failure contract: a factory error fails
// the affected seed's run (recorded on its Result) rather than being
// dropped.
func TestTracerFactoryError(t *testing.T) {
	boom := errors.New("no tracer for you")
	eng := NewEngine(WithSeeds(2), WithBaseSeed(0), WithWorkers(1), WithFast(true),
		WithTracerFactory(func(seed int64) (obs.Tracer, error) {
			if seed == 1 {
				return nil, boom
			}
			return obs.Nop, nil
		}))
	st, err := eng.Stream(context.Background(), "boot")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	var failed int
	for res := range st.Results() {
		if res.Err != "" {
			failed++
			if res.Seed != 1 {
				t.Errorf("seed %d failed, want seed 1 (err %q)", res.Seed, res.Err)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed seeds, want 1", failed)
	}
	if _, err := st.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
}
