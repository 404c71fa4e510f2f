// Command perfbench is the repository's benchmark. It drives one workload
// through the simulator's public entry points — the campaign Engine, the
// serve HTTP service, and the population/measure functions — checks
// every output against recorded or independently computed results, and
// prints its metrics as one JSON object on the last line of standard
// output.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload attack --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// adds a traced pass and reports the per-layer metrics instead. See
// README.md for the workloads and the layer-to-metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dnstime/internal/obs"
)

// A run repeats its workload's set-up at least minSetups times and until
// setupBudget has passed, at most maxSetups times; setup_s is the median.
const (
	minSetups   = 9
	maxSetups   = 49
	setupBudget = time.Second
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workers  int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's outcome: operations attempted and failed, the
// reasons for each failure, the metrics, and supporting detail (sample
// counts, host) printed ahead of the result line.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	info      map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, info: map[string]any{}}
}

// fail records n failed operations and why.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{value, unit}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var record string
	fs.StringVar(&o.workload, "workload", "", "workload: attack, scan or serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (the same seed gives the same inputs)")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.StringVar(&record, "record-golden", "", "write golden.json for these seeds (e.g. 0-31,97) to stdout and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One engine worker per CPU, and as many scheduler threads.
	o.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(o.workers)
	ctx := context.Background()

	if record != "" {
		seeds, err := parseSeeds(record)
		if err != nil {
			return err
		}
		return recordGolden(ctx, o.workers, seeds, stdout)
	}
	if o.seed < 0 || o.seed >= 1<<40 {
		return fmt.Errorf("--seed must be in [0, 2^40) (got %d)", o.seed)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1 (got %d)", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1 (got %d)", trace)
	}
	o.trace = trace == 1

	var (
		rep *report
		err error
	)
	cpu0 := cpuTicks()
	switch o.workload {
	case "attack":
		rep, err = runMix(ctx, o, attackMix)
	case "scan":
		rep, err = runMix(ctx, o, scanMix)
	case "serve":
		rep, err = runServe(ctx, o)
	default:
		return fmt.Errorf("unknown --workload %q (want attack, scan or serve)", o.workload)
	}
	if err != nil {
		return err
	}
	rep.info["max_rss_mb"] = peakRSSMiB()
	rep.info["steal_share"] = stealShare(cpu0, cpuTicks())
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED:", p)
	}
	rep.info["workload"] = o.workload
	rep.info["seed"] = o.seed
	rep.info["trace"] = o.trace
	rep.info["host"] = hostInfo(o.workers)
	info, err := json.Marshal(rep.info)
	if err != nil {
		return fmt.Errorf("info line: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", info)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return nil
}

// parseSeeds parses a comma-separated list of seeds and inclusive ranges
// ("0-31,97").
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		var lo, hi int64
		if n, _ := fmt.Sscanf(part, "%d-%d", &lo, &hi); n == 2 {
			if hi < lo {
				return nil, fmt.Errorf("seed range %q is empty", part)
			}
			for x := lo; x <= hi; x++ {
				out = append(out, x)
			}
			continue
		}
		if _, err := fmt.Sscanf(part, "%d", &lo); err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, lo)
	}
	return out, nil
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host identifies the machine and build a result was measured on, so
// throughput is compared only between matching hosts.
type host struct {
	CPU        string    `json:"cpu"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Workers    int       `json:"workers"`
	GOGC       string    `json:"gogc"`
	Build      obs.Build `json:"build"`
}

func hostInfo(workers int) host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100" // the runtime default
	}
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GOGC:       gogc,
		Build:      obs.BuildInfo(),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine-wide CPU time counters, the first line of
// /proc/stat (nil where that file does not exist).
func cpuTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []int64
	for _, f := range strings.Fields(line)[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, n)
	}
	return out
}

// stealShare is the share of the machine's busy CPU time between two
// cpuTicks readings that the hypervisor gave to other guests (the steal
// column): on a shared host, the noise a run's timings carry. It is -1
// where the counters cannot be read.
func stealShare(before, after []int64) float64 {
	const idle, iowait, steal = 3, 4, 7
	if len(before) <= steal || len(after) != len(before) {
		return -1
	}
	var busy int64
	for i := range after {
		if i != idle && i != iowait {
			busy += after[i] - before[i]
		}
	}
	if busy == 0 {
		return 0
	}
	return float64(after[steal]-before[steal]) / float64(busy)
}

// timeSetups repeats setup as the set-up constants say and returns the
// median duration in seconds. The last set-up's state is what the run
// measures.
func timeSetups(setup func(i int) error) (float64, error) {
	var secs []float64
	for begin := time.Now(); len(secs) < minSetups || len(secs) < maxSetups && time.Since(begin) < setupBudget; {
		i := len(secs)
		start := time.Now()
		if err := setup(i); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// phaseDelta is the per-phase seconds the obs phase counters gained
// between two snapshots.
func phaseDelta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
