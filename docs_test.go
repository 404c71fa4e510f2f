// Documentation enforcement: the DESIGN.md §4 experiment index must match
// the scenario registry, relative links in the top-level docs must
// resolve, and the packages named in ISSUE-tracked godoc passes must
// document every exported symbol. CI runs these in its docs job; they are
// ordinary tests so `go test ./...` catches drift locally too.
package dnstime_test

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dnstime"
)

// Markers delimiting the generated experiment index inside DESIGN.md.
const (
	indexBegin = "<!-- scenario-index:begin"
	indexEnd   = "<!-- scenario-index:end"
)

// TestDesignExperimentIndexInSync: the §4 table embedded in DESIGN.md is
// exactly what the registry generates, so the documented index cannot
// drift from the code. Regenerate with:
//
//	go run ./cmd/experiments scenarios -markdown
func TestDesignExperimentIndexInSync(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	begin := strings.Index(text, indexBegin)
	end := strings.Index(text, indexEnd)
	if begin < 0 || end < 0 || end < begin {
		t.Fatalf("DESIGN.md is missing the %s / %s markers", indexBegin, indexEnd)
	}
	embedded := text[begin:end]
	// Drop the begin-marker line itself.
	if i := strings.Index(embedded, "\n"); i >= 0 {
		embedded = embedded[i+1:]
	}
	want := dnstime.ScenarioIndexMarkdown()
	if strings.TrimSpace(embedded) != strings.TrimSpace(want) {
		t.Errorf("DESIGN.md §4 experiment index is out of sync with the registry.\n"+
			"Regenerate with: go run ./cmd/experiments scenarios -markdown\n\n"+
			"embedded:\n%s\nregistry:\n%s", embedded, want)
	}
}

// TestDocsRelativeLinks: every relative markdown link in the top-level
// docs points at a file that exists.
func TestDocsRelativeLinks(t *testing.T) {
	linkRe := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s links to %q which does not resolve: %v", name, m[1], err)
			}
		}
	}
}

// TestGodocCoverage: internal/scenario, internal/campaign,
// internal/stats, internal/netem (including the topology layer),
// internal/simnet, internal/ntpclient, internal/core, internal/serve,
// internal/obs, internal/search, internal/applog and internal/simrand must
// carry a package comment and a doc comment on every exported symbol
// (types, funcs, methods, and const/var groups).
func TestGodocCoverage(t *testing.T) {
	for _, dir := range []string{
		"internal/scenario", "internal/campaign", "internal/stats",
		"internal/netem", "internal/simnet", "internal/ntpclient",
		"internal/core", "internal/serve", "internal/obs", "internal/search",
		"internal/applog", "internal/simrand",
	} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			p := doc.New(pkg, dir, 0)
			if strings.TrimSpace(p.Doc) == "" {
				t.Errorf("%s: missing package comment", dir)
			}
			check := func(kind, name, docText string) {
				if !ast.IsExported(strings.TrimPrefix(name, "*")) {
					return
				}
				if strings.TrimSpace(docText) == "" {
					t.Errorf("%s: exported %s %s has no doc comment", dir, kind, name)
				}
			}
			values := func(kind string, vs []*doc.Value) {
				for _, v := range vs {
					for _, name := range v.Names {
						check(kind, name, v.Doc)
					}
				}
			}
			values("const", p.Consts)
			values("var", p.Vars)
			for _, f := range p.Funcs {
				check("func", f.Name, f.Doc)
			}
			for _, typ := range p.Types {
				check("type", typ.Name, typ.Doc)
				values("const", typ.Consts)
				values("var", typ.Vars)
				for _, f := range typ.Funcs {
					check("func", f.Name, f.Doc)
				}
				for _, m := range typ.Methods {
					check("method", typ.Name+"."+m.Name, m.Doc)
				}
			}
		}
	}
}
