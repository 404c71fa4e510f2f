package dnstime_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneSeeder: every simulation RNG is seeded through internal/simrand,
// whose Source draws math/rand's stream but seeds about four times faster.
// The scan parses every non-test Go file outside perfbench/ (the benchmark
// harness, a module of its own) and fails on any call to math/rand's
// NewSource outside internal/simrand, so the slow seeder cannot come back.
func TestOneSeeder(t *testing.T) {
	const allowed = "internal/simrand"
	fset := token.NewFileSet()
	sawAllowed := false
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
				local = "rand"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewSource" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != local {
				return true
			}
			if filepath.ToSlash(filepath.Dir(path)) == allowed {
				sawAllowed = true
				return true
			}
			t.Errorf("%s: math/rand.NewSource outside %s; seed with simrand.New", fset.Position(sel.Pos()), allowed)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawAllowed {
		t.Errorf("scan found no math/rand.NewSource call in %s; the scan itself is broken", allowed)
	}
}
