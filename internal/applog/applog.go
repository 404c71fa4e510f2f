// Package applog is the append-only JSONL log behind every resumable run:
// campaign checkpoints (one line per completed seed) and search
// checkpoints (one line per completed probe campaign). A log is one
// header line naming what its records are valid for, followed by one
// JSON record per line in append order.
//
// The package owns what both formats share: the build-revision stamp and
// gate, the loader that tolerates a torn trailing line, and the writer
// that either truncates a resumed log to its valid prefix and appends, or
// creates a fresh log with a header and a replay of resumed records. Each
// caller keeps its own header type, compatibility check and record type,
// and passes the prefix ("campaign", "search") its errors carry.
package applog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"dnstime/internal/obs"
)

// BuildRevision reports the VCS revision stamped into log headers. It is
// a variable so tests can simulate resuming under a different build:
// obs.BuildInfo caches after the first call, and `go test` binaries
// carry no vcs.revision at all.
var BuildRevision = func() string { return obs.BuildInfo().Revision }

// Revision returns the current build's VCS revision for a log header, or
// "" when the binary was not built from a VCS checkout ("unknown" is the
// BuildInfo placeholder, not an identity — stamping it would make every
// non-VCS build look like the same revision).
func Revision() string {
	if rev := BuildRevision(); rev != "" && rev != "unknown" {
		return rev
	}
	return ""
}

// CheckRevision is the revision gate: records are only reproducible
// under the simulator code that wrote them, so a log recorded at another
// revision is refused unless force is set. The gate only fires when both
// sides are known — a log without a revision, or a non-VCS build, has
// nothing to compare, and refusing there would break every `go test`
// resume.
func CheckRevision(prefix, recorded string, force bool) error {
	if cur := Revision(); recorded != "" && cur != "" && recorded != cur && !force {
		return fmt.Errorf("%s: checkpoint was written at revision %.12s, this build is %.12s — its results may not reproduce; pass -force to resume anyway",
			prefix, recorded, cur)
	}
	return nil
}

// Load reads the log at path. The first line is decoded as an H and
// passed to check; every later line is decoded as an R and passed to
// add. It returns the byte length of the log's valid newline-terminated
// prefix.
//
// A trailing fragment with no terminating newline is the signature of a
// write torn by a hard kill or power loss — exactly the crash a log
// exists to survive — so it is ignored rather than treated as corruption
// (Open truncates it away before appending). A malformed line inside the
// terminated prefix, a rejected header or a log without one is an error,
// not a silent restart.
func Load[H, R any](prefix, path string, check func(H) error, add func(R)) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("%s: resume: %w", prefix, err)
	}
	var validLen int64
	lineNo := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn trailing fragment: not part of the log
		}
		line := data[:nl]
		lineNo++
		if lineNo == 1 {
			var h H
			if err := json.Unmarshal(line, &h); err != nil {
				return 0, fmt.Errorf("%s: resume %s: bad header: %w", prefix, path, err)
			}
			if err := check(h); err != nil {
				return 0, fmt.Errorf("%w (resume %s)", err, path)
			}
		} else {
			var rec R
			if err := json.Unmarshal(line, &rec); err != nil {
				return 0, fmt.Errorf("%s: resume %s line %d: %w", prefix, path, lineNo, err)
			}
			add(rec)
		}
		validLen += int64(nl + 1)
		data = data[nl+1:]
	}
	if lineNo == 0 {
		return 0, fmt.Errorf("%s: resume %s: empty checkpoint", prefix, path)
	}
	return validLen, nil
}

// Writer appends records of type R to an open log. It is not safe for
// concurrent use; callers serialise Append.
type Writer[R any] struct {
	prefix string
	f      *os.File
}

// Open prepares the log at path for appending. A positive validLen says
// path is also the resume source and Load accepted its first validLen
// bytes: the file is truncated to that prefix (dropping any torn tail)
// and appended to, so one file keeps growing across interrupted runs.
// Otherwise — or if that file cannot be reopened — path is created with
// hdr as its first line followed by replay, so the new log is complete on
// its own.
func Open[H, R any](prefix, path string, validLen int64, hdr H, replay []R) (*Writer[R], error) {
	if validLen > 0 {
		if f, err := os.OpenFile(path, os.O_WRONLY, 0o644); err == nil {
			if err := f.Truncate(validLen); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: checkpoint %s: %w", prefix, path, err)
			}
			if _, err := f.Seek(validLen, 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: checkpoint %s: %w", prefix, path, err)
			}
			return &Writer[R]{prefix: prefix, f: f}, nil
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: checkpoint: %w", prefix, err)
	}
	w := &Writer[R]{prefix: prefix, f: f}
	b, err := json.Marshal(hdr)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: checkpoint: %w", prefix, err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: checkpoint %s: %w", prefix, path, err)
	}
	for _, rec := range replay {
		if err := w.Append(rec); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// Append writes one record as a JSONL line.
func (w *Writer[R]) Append(rec R) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%s: checkpoint: %w", w.prefix, err)
	}
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("%s: checkpoint %s: %w", w.prefix, w.f.Name(), err)
	}
	return nil
}

// Close flushes and closes the log file.
func (w *Writer[R]) Close() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("%s: checkpoint %s: %w", w.prefix, w.f.Name(), err)
	}
	return nil
}
