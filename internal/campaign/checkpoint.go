package campaign

import (
	"fmt"
	"reflect"
	"sort"

	"dnstime/internal/applog"
	"dnstime/internal/scenario"
)

// checkpointVersion is bumped if the JSONL layout ever changes shape.
const checkpointVersion = 1

// checkpointHeader is the first line of a checkpoint file: it pins the
// campaign identity so a checkpoint can never be resumed into a different
// experiment (or the same one at different fast/params settings), which
// would silently mix incompatible per-seed results.
type checkpointHeader struct {
	V        int             `json:"v"`
	Scenario string          `json:"scenario"`
	BaseSeed int64           `json:"base_seed"`
	Seeds    int             `json:"seeds"`
	Fast     bool            `json:"fast,omitempty"`
	Params   scenario.Params `json:"params,omitempty"`
	// Revision records the VCS revision of the binary that wrote the
	// checkpoint, when known. Per-seed results are only reproducible under
	// the same simulator code, so resuming under a different revision is
	// refused unless explicitly forced (WithResumeForce).
	Revision string `json:"revision,omitempty"`
}

// header builds the checkpoint header for one resolved engine config.
func header(cfg engineConfig, scenarioName string) checkpointHeader {
	return checkpointHeader{
		V:        checkpointVersion,
		Scenario: scenarioName,
		BaseSeed: cfg.baseSeed,
		Seeds:    cfg.seeds,
		Fast:     cfg.fast,
		Params:   cfg.params,
		Revision: applog.Revision(),
	}
}

// compatible reports whether a checkpoint written under h can seed a
// campaign under the resolved config: same scenario, fast mode and
// params, and the same build revision unless forced. The seed range may
// differ — the loader only reuses in-range seeds — so a checkpoint can
// also extend a campaign to more seeds.
func (h checkpointHeader) compatible(cfg engineConfig, scenarioName string) error {
	if h.V != checkpointVersion {
		return fmt.Errorf("campaign: checkpoint version %d, want %d", h.V, checkpointVersion)
	}
	if h.Scenario != scenarioName {
		return fmt.Errorf("campaign: checkpoint is for scenario %q, not %q", h.Scenario, scenarioName)
	}
	if h.Fast != cfg.fast {
		return fmt.Errorf("campaign: checkpoint fast=%t, engine fast=%t", h.Fast, cfg.fast)
	}
	if len(h.Params) != len(cfg.params) || (len(h.Params) > 0 && !reflect.DeepEqual(h.Params, cfg.params)) {
		return fmt.Errorf("campaign: checkpoint params (%s) differ from engine params (%s)",
			h.Params, cfg.params)
	}
	return applog.CheckRevision("campaign", h.Revision, cfg.forceResume)
}

// loadCheckpoint reads a checkpoint file and returns the recorded Results
// for seeds inside the campaign's range, keyed by seed, plus the byte
// length of the file's valid prefix (see applog.Load for the torn-tail
// contract). Results are reused exactly as recorded: scenario Results
// marshal byte-stably, so a resumed campaign's aggregate is
// byte-identical to an uninterrupted one.
func loadCheckpoint(path string, cfg engineConfig, scenarioName string) (map[int64]scenario.Result, int64, error) {
	resumed := map[int64]scenario.Result{}
	validLen, err := applog.Load("campaign", path,
		func(h checkpointHeader) error { return h.compatible(cfg, scenarioName) },
		func(res scenario.Result) {
			if res.Seed >= cfg.baseSeed && res.Seed < cfg.baseSeed+int64(cfg.seeds) {
				resumed[res.Seed] = res
			}
		})
	if err != nil {
		return nil, 0, err
	}
	return resumed, validLen, nil
}

// openCheckpoint prepares the checkpoint file: appended to in place when
// it is also the resume source, otherwise created with a header and a
// seed-order replay of the resumed results (see applog.Open).
func openCheckpoint(path string, cfg engineConfig, scenarioName string, resumed map[int64]scenario.Result, validLen int64) (*applog.Writer[scenario.Result], error) {
	if path != cfg.resume {
		validLen = 0
	}
	replay := make([]scenario.Result, 0, len(resumed))
	for _, res := range resumed {
		replay = append(replay, res)
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].Seed < replay[j].Seed })
	return applog.Open("campaign", path, validLen, header(cfg, scenarioName), replay)
}
