package search

import (
	"errors"
	"fmt"
	"io/fs"
	"reflect"
	"sort"

	"dnstime/internal/applog"
	"dnstime/internal/scenario"
)

// searchCheckpointVersion is bumped if the JSONL layout changes shape.
const searchCheckpointVersion = 1

// searchHeader is the first line of a search checkpoint: the search
// identity a recorded probe is only valid under. Seed range is NOT part
// of the header — it is part of each probe's key, so one file can serve
// searches that mix probe sizes (the Grid prune/extend stages).
type searchHeader struct {
	V        int             `json:"v"`
	Scenario string          `json:"scenario"`
	Target   float64         `json:"target"`
	Fast     bool            `json:"fast,omitempty"`
	Params   scenario.Params `json:"params,omitempty"`
	// Revision is the VCS revision of the writing binary, when known.
	// Probe outcomes are only reproducible under the same simulator
	// code, so a cross-revision resume is refused unless Options.Force.
	Revision string `json:"revision,omitempty"`
}

// searchHeaderFor builds the header for one option set.
func searchHeaderFor(opt Options) searchHeader {
	return searchHeader{
		V:        searchCheckpointVersion,
		Scenario: opt.Scenario,
		Target:   opt.Target,
		Fast:     opt.Fast,
		Params:   opt.Params,
		Revision: applog.Revision(),
	}
}

// compatible reports whether probes recorded under h can answer a
// search under opt.
func (h searchHeader) compatible(opt Options) error {
	switch {
	case h.V != searchCheckpointVersion:
		return fmt.Errorf("search: checkpoint version %d, want %d", h.V, searchCheckpointVersion)
	case h.Scenario != opt.Scenario:
		return fmt.Errorf("search: checkpoint is for scenario %q, not %q", h.Scenario, opt.Scenario)
	case h.Target != opt.Target:
		return fmt.Errorf("search: checkpoint target %v, search target %v", h.Target, opt.Target)
	case h.Fast != opt.Fast:
		return fmt.Errorf("search: checkpoint fast=%t, search fast=%t", h.Fast, opt.Fast)
	case len(h.Params) != len(opt.Params) ||
		(len(h.Params) > 0 && !reflect.DeepEqual(h.Params, opt.Params)):
		return fmt.Errorf("search: checkpoint params (%s) differ from search params (%s)", h.Params, opt.Params)
	}
	return applog.CheckRevision("search", h.Revision, opt.Force)
}

// probeRecord is one completed probe campaign as persisted: its
// canonical key (full param assignment plus seed range) and its
// binary-outcome counts — everything a resume needs to skip the
// campaign.
type probeRecord struct {
	Key       string `json:"key"`
	Successes int    `json:"successes"`
	Runs      int    `json:"runs"`
}

// probeCache answers probes from a resume checkpoint and appends newly
// executed ones to the checkpoint file. With neither Resume nor
// Checkpoint set it degrades to an in-memory map (which still
// deduplicates probes inside one search).
type probeCache struct {
	recs map[string]probeRecord
	w    *applog.Writer[probeRecord] // nil when no checkpoint file is being written
}

// openProbeCache loads the resume file (when configured) and prepares
// the checkpoint file (when configured), mirroring campaign.Engine's
// resume workflow: same path for both means one file keeps growing
// across interruptions and a missing file is a fresh start; a torn
// trailing fragment (crash mid-append) is truncated away, while a
// malformed line inside the terminated prefix is an error.
func openProbeCache(opt Options) (*probeCache, error) {
	c := &probeCache{recs: map[string]probeRecord{}}
	var validLen int64
	if opt.Resume != "" {
		n, err := loadProbes(opt, c.recs)
		switch {
		case err == nil:
			validLen = n
		case opt.Resume == opt.Checkpoint && errors.Is(err, fs.ErrNotExist):
		default:
			return nil, err
		}
	}
	if opt.Checkpoint == "" {
		return c, nil
	}
	if opt.Checkpoint != opt.Resume {
		validLen = 0
	}
	// Replay resumed probes (sorted by key) so a cross-file checkpoint
	// is complete on its own.
	replay := make([]probeRecord, 0, len(c.recs))
	for _, rec := range c.recs {
		replay = append(replay, rec)
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].Key < replay[j].Key })
	w, err := applog.Open("search", opt.Checkpoint, validLen, searchHeaderFor(opt), replay)
	if err != nil {
		return nil, err
	}
	c.w = w
	return c, nil
}

// loadProbes reads the resume file into recs and returns the byte length
// of its valid newline-terminated prefix.
func loadProbes(opt Options, recs map[string]probeRecord) (int64, error) {
	return applog.Load("search", opt.Resume,
		func(h searchHeader) error { return h.compatible(opt) },
		func(rec probeRecord) { recs[rec.Key] = rec })
}

// get answers a probe from the cache.
func (c *probeCache) get(key string) (probeRecord, bool) {
	rec, ok := c.recs[key]
	return rec, ok
}

// put records a newly executed probe and appends it to the checkpoint
// file when one is open.
func (c *probeCache) put(key string, successes, runs int) error {
	rec := probeRecord{Key: key, Successes: successes, Runs: runs}
	c.recs[key] = rec
	if c.w == nil {
		return nil
	}
	return c.w.Append(rec)
}

// close flushes and closes the checkpoint file; idempotent.
func (c *probeCache) close() error {
	if c.w == nil {
		return nil
	}
	w := c.w
	c.w = nil
	return w.Close()
}
