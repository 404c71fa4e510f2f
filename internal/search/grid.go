package search

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dnstime/internal/simrand"
)

// Dim is one dimension of a grid sweep: a scenario param key and the
// candidate values to cross (e.g. vic-net × client × margin).
type Dim struct {
	// Key is the scenario param the dimension assigns.
	Key string `json:"key"`
	// Values are the candidate values, in the order given.
	Values []string `json:"values"`
}

// Cell is one evaluated grid point: its full swept param assignment and
// the probe statistics, possibly from a pruned (smaller) campaign.
type Cell struct {
	// Params is the cell's swept assignment (fixed Options.Params are
	// not repeated here).
	Params map[string]string `json:"params"`
	Probe
	// Pruned marks a cell whose first-stage Wilson interval already
	// excluded the target, so the extension stage was skipped: "below"
	// (CI entirely under the target) or "above" (entirely over). The
	// cell's statistics then cover only the prune-stage seeds — Runs
	// says so.
	Pruned string `json:"pruned,omitempty"`
}

// GridOptions configures a grid sweep on top of the shared probe
// Options.
type GridOptions struct {
	Options
	// PruneSeeds, when in (0, Seeds), splits each cell's campaign into a
	// prune stage of this many seeds and an extension stage for the
	// rest: cells whose prune-stage 95% Wilson interval already excludes
	// the target success rate stop early. Zero disables pruning.
	PruneSeeds int
	// Samples, when positive and smaller than the full product, Latin-
	// hypercube subsamples the grid down to at most this many cells
	// (deterministically — the same dims always select the same cells).
	Samples int
}

// GridResult is a completed sweep: every evaluated cell in canonical
// order plus the sweep's shape.
type GridResult struct {
	// Scenario, Target, Seeds and PruneSeeds restate the sweep.
	Scenario   string  `json:"scenario"`
	Target     float64 `json:"target"`
	Seeds      int     `json:"seeds"`
	PruneSeeds int     `json:"prune_seeds,omitempty"`
	// Sampled reports how many cells of the full product were dropped
	// by Latin-hypercube subsampling (0 = exhaustive).
	Dropped int `json:"dropped,omitempty"`
	// PrunedCells counts cells stopped at the prune stage.
	PrunedCells int `json:"pruned_cells"`
	// Cells lists every evaluated cell in canonical (sorted-key) order,
	// independent of execution order.
	Cells []Cell `json:"cells"`
}

// cellKey is a cell's canonical identity: its swept assignment rendered
// with sorted keys.
func cellKey(params map[string]string) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+params[k])
	}
	return strings.Join(parts, ",")
}

// Grid sweeps the cross product of dims (optionally Latin-hypercube
// subsampled) over the scenario, evaluating each cell as one or two
// probe campaigns: with GridOptions.PruneSeeds set, a cell first runs a
// small campaign and is abandoned if its Wilson interval already
// excludes the target success rate — the boundary cannot run through a
// cell that is confidently all-success or all-failure — and only
// undecided cells pay for the full Seeds. Cells are evaluated and
// reported in canonical order, so the marshalled GridResult is
// byte-identical at any worker count and across checkpoint resumes.
func Grid(ctx context.Context, dims []Dim, opt GridOptions) (GridResult, error) {
	opt.Options = opt.Options.withDefaults()
	if err := opt.Options.validate(); err != nil {
		return GridResult{}, err
	}
	if err := validateDims(dims, opt); err != nil {
		return GridResult{}, err
	}
	cells := product(dims)
	full := len(cells)
	if opt.Samples > 0 && opt.Samples < len(cells) {
		cells = latinSample(dims, opt.Samples)
	}
	sort.Slice(cells, func(i, j int) bool { return cellKey(cells[i]) < cellKey(cells[j]) })

	cache, err := openProbeCache(opt.Options)
	if err != nil {
		return GridResult{}, err
	}
	defer cache.close()

	res := GridResult{
		Scenario:   opt.Scenario,
		Target:     opt.Target,
		Seeds:      opt.Seeds,
		PruneSeeds: opt.PruneSeeds,
		Dropped:    full - len(cells),
	}
	staged := opt.PruneSeeds > 0 && opt.PruneSeeds < opt.Seeds
	for _, assign := range cells {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("search: grid interrupted: %w", err)
		}
		cell := Cell{Params: assign}
		if !staged {
			p, err := runProbe(ctx, opt.Options, cache, assign, opt.Seeds, opt.BaseSeed)
			if err != nil {
				return res, err
			}
			cell.Probe = p
		} else {
			// Prune stage: a short campaign at the base seed.
			p, err := runProbe(ctx, opt.Options, cache, assign, opt.PruneSeeds, opt.BaseSeed)
			if err != nil {
				return res, err
			}
			switch {
			case p.CI.Hi < opt.Target:
				cell.Probe, cell.Pruned = p, "below"
			case p.CI.Lo > opt.Target:
				cell.Probe, cell.Pruned = p, "above"
			default:
				// Extension stage: the remaining seeds, shifted past the
				// prune stage so no seed is ever counted twice, merged
				// into one pooled estimate.
				ext, err := runProbe(ctx, opt.Options, cache, assign,
					opt.Seeds-opt.PruneSeeds, opt.BaseSeed+int64(opt.PruneSeeds))
				if err != nil {
					return res, err
				}
				cell.Probe = foldProbe(opt.Options, assign,
					p.Successes+ext.Successes, p.Runs+ext.Runs, p.Cached && ext.Cached)
			}
		}
		if cell.Pruned != "" {
			res.PrunedCells++
		}
		res.Cells = append(res.Cells, cell)
		if opt.Progress != nil {
			opt.Progress(cell.Probe, len(res.Cells), len(cells))
		}
	}
	return res, cache.close()
}

// validateDims rejects dimension sets the sweep cannot evaluate.
func validateDims(dims []Dim, opt GridOptions) error {
	if len(dims) == 0 {
		return fmt.Errorf("search: grid needs at least one dimension")
	}
	seen := map[string]bool{}
	for _, d := range dims {
		switch {
		case d.Key == "" || strings.ContainsAny(d.Key, "= ,"):
			return fmt.Errorf("search: dimension key %q is not a scenario param key", d.Key)
		case len(d.Values) == 0:
			return fmt.Errorf("search: dimension %s has no values", d.Key)
		case seen[d.Key]:
			return fmt.Errorf("search: duplicate dimension %s", d.Key)
		}
		if _, fixed := opt.Params[d.Key]; fixed {
			return fmt.Errorf("search: dimension %s collides with a fixed -param", d.Key)
		}
		vals := map[string]bool{}
		for _, v := range d.Values {
			if vals[v] {
				return fmt.Errorf("search: dimension %s repeats value %q", d.Key, v)
			}
			vals[v] = true
		}
		seen[d.Key] = true
	}
	return nil
}

// product enumerates the full cross product of dims.
func product(dims []Dim) []map[string]string {
	cells := []map[string]string{{}}
	for _, d := range dims {
		next := make([]map[string]string, 0, len(cells)*len(d.Values))
		for _, cell := range cells {
			for _, v := range d.Values {
				c := make(map[string]string, len(cell)+1)
				for k, val := range cell {
					c[k] = val
				}
				c[d.Key] = v
				next = append(next, c)
			}
		}
		cells = next
	}
	return cells
}

// latinSample draws up to n cells by Latin-hypercube sampling: each
// dimension's value list is repeated to length n and deterministically
// shuffled (a fixed per-dimension seed — no wall-clock randomness, so
// the same dims and n always select the same cells), then the columns
// are zipped into cells and deduplicated. Every value of every
// dimension appears in roughly n/len(Values) cells, so coverage stays
// balanced where a cartesian truncation would starve late dimensions.
func latinSample(dims []Dim, n int) []map[string]string {
	cols := make([][]string, len(dims))
	for di, d := range dims {
		col := make([]string, n)
		for i := range col {
			col[i] = d.Values[i%len(d.Values)]
		}
		rng := rand.New(simrand.New(0x5ea4c4 + int64(di)))
		rng.Shuffle(n, func(i, j int) { col[i], col[j] = col[j], col[i] })
		cols[di] = col
	}
	seen := map[string]bool{}
	var cells []map[string]string
	for i := 0; i < n; i++ {
		cell := make(map[string]string, len(dims))
		for di, d := range dims {
			cell[d.Key] = cols[di][i]
		}
		if key := cellKey(cell); !seen[key] {
			seen[key] = true
			cells = append(cells, cell)
		}
	}
	return cells
}
