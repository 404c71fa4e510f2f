package applog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type testHeader struct {
	Name string `json:"name"`
}

type testRecord struct {
	N int `json:"n"`
}

// load reads path as a log of testRecords under a header that must be
// named "t".
func load(t *testing.T, path string) ([]int, int64, error) {
	t.Helper()
	var got []int
	n, err := Load("test", path,
		func(h testHeader) error {
			if h.Name != "t" {
				return os.ErrInvalid
			}
			return nil
		},
		func(r testRecord) { got = append(got, r.N) })
	return got, n, err
}

// TestAppendLogRoundTrip walks the whole life of a log: a fresh file gets
// the header and the replay; a resume loads it, ignores a torn tail,
// truncates it away and keeps appending; a log written elsewhere is
// recreated from its replay.
func TestAppendLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	w, err := Open("test", path, 0, testHeader{Name: "t"}, []testRecord{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecord{3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"name\":\"t\"}\n{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n"; string(data) != want {
		t.Fatalf("log bytes = %q, want %q", data, want)
	}

	// A crash tears the next append mid-line.
	if err := os.WriteFile(path, append(data, `{"n":`...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, validLen, err := load(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != int64(len(data)) || len(got) != 3 {
		t.Fatalf("load = %v, validLen %d; want 3 records, validLen %d", got, validLen, len(data))
	}
	w, err = Open("test", path, validLen, testHeader{Name: "t"}, []testRecord{{99}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecord{4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _, err = load(t, path); err != nil || len(got) != 4 || got[3] != 4 {
		t.Fatalf("after resume-in-place append: %v, %v (the torn tail must be gone and nothing replayed)", got, err)
	}

	other := filepath.Join(dir, "other.jsonl")
	if w, err = Open("test", other, 0, testHeader{Name: "t"}, []testRecord{{7}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _, err = load(t, other); err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("fresh log with replay: %v, %v", got, err)
	}
}

// TestLoadErrorsCarryPrefix: every load failure names the caller's
// prefix (or wraps the caller's own header error) and the file.
func TestLoadErrorsCarryPrefix(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]struct{ data, want string }{
		"empty":       {"", "test: resume " + dir},
		"bad header":  {"nope\n", "bad header"},
		"wrong name":  {"{\"name\":\"u\"}\n", "(resume " + dir},
		"bad record":  {"{\"name\":\"t\"}\nnope\n", "line 2"},
		"torn header": {"{\"name\":", "empty checkpoint"},
	}
	for name, tc := range cases {
		path := filepath.Join(dir, "log.jsonl")
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := load(t, path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", name, err, tc.want)
		}
	}
	if _, _, err := load(t, filepath.Join(dir, "missing")); err == nil || !strings.HasPrefix(err.Error(), "test: resume: ") {
		t.Errorf("missing file: err = %v", err)
	}
}
