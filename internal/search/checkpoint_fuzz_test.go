package search

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzOpt is the search every fuzzed load resumes into.
var fuzzOpt = Options{Scenario: "t-search-step", Target: 0.5, Resume: "ck.jsonl"}

// searchCheckpointBytes renders a well-formed search checkpoint for the
// fuzz corpus.
func searchCheckpointBytes(hdr searchHeader, recs ...probeRecord) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(hdr); err != nil {
		panic(err)
	}
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// loadFuzzProbes writes data to a fresh file and loads it as fuzzOpt's
// resume source.
func loadFuzzProbes(t *testing.T, data []byte) (map[string]probeRecord, int64, error) {
	t.Helper()
	opt := fuzzOpt
	opt.Resume = filepath.Join(t.TempDir(), opt.Resume)
	if err := os.WriteFile(opt.Resume, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := map[string]probeRecord{}
	validLen, err := loadProbes(opt, recs)
	return recs, validLen, err
}

// FuzzLoadSearchCheckpoint drives the shared append-log loader through
// search's header and probe-record types with torn tails, truncated
// headers, foreign searches and arbitrary corruption. The invariants: no
// panic; on success the valid prefix lies within the input and ends on a
// newline, everything after it is one unterminated (torn) fragment, and
// loading the valid prefix alone reproduces the identical probe set — the
// torn tail contributes nothing.
func FuzzLoadSearchCheckpoint(f *testing.F) {
	good := searchHeader{V: searchCheckpointVersion, Scenario: "t-search-step", Target: 0.5}
	full := searchCheckpointBytes(good,
		probeRecord{Key: "x=0.25|1+4", Successes: 0, Runs: 4},
		probeRecord{Key: "x=0.5|1+4", Successes: 4, Runs: 4})
	f.Add(full)                                  // happy path
	f.Add(full[:len(full)-9])                    // torn tail mid-record
	f.Add(full[:12])                             // truncated header, no newline
	f.Add([]byte(`{"v":1,"scenario":"t-search`)) // unterminated header
	f.Add(searchCheckpointBytes(searchHeader{V: searchCheckpointVersion, Scenario: "racemargin", Target: 0.5},
		probeRecord{Key: "k", Runs: 1})) // another scenario's search
	f.Add(searchCheckpointBytes(searchHeader{V: searchCheckpointVersion, Scenario: "t-search-step", Target: 0.9})) // other target
	f.Add(searchCheckpointBytes(searchHeader{V: 99, Scenario: "t-search-step", Target: 0.5}))                      // future version
	f.Add([]byte{})                                                                                                // empty file
	f.Add([]byte("\n\n"))                                                                                          // blank lines
	f.Add([]byte("not json at all\n"))                                                                             // garbage header
	f.Add(append(append([]byte{}, full...), `{"key":"x=0.75|1+4","succ`...))                                       // torn append
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, err := loadFuzzProbes(t, data)
		if err != nil {
			return // rejected input: fine, as long as it never panics
		}
		if validLen <= 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside (0, %d]", validLen, len(data))
		}
		if data[validLen-1] != '\n' {
			t.Errorf("valid prefix does not end on a newline (len %d)", validLen)
		}
		if bytes.IndexByte(data[validLen:], '\n') >= 0 {
			t.Errorf("terminated line beyond the valid prefix (len %d)", validLen)
		}
		recs2, validLen2, err := loadFuzzProbes(t, data[:validLen])
		if err != nil {
			t.Fatalf("valid prefix no longer loads: %v", err)
		}
		if validLen2 != validLen || !reflect.DeepEqual(recs, recs2) {
			t.Errorf("torn tail changed the load: len %d vs %d, %v vs %v",
				validLen, validLen2, recs, recs2)
		}
	})
}
