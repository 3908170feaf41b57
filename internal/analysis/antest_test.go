package analysis

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expectation is one parsed want comment: a diagnostic matching re must
// be reported at (file, line).
type expectation struct {
	file string // base name of the fixture file
	line int
	re   *regexp.Regexp
	text string // original pattern, for failure messages
}

// collectWants parses the fixture's want comments. The grammar is a
// small subset of analysistest's:
//
//	// want "regexp" ["regexp" ...]
//
// applying to the comment's own line, with an optional signed offset
// (want-1 "regexp") for diagnostics reported on a neighboring line —
// needed by the directives fixture, whose findings land on the
// directive comment itself, leaving no room for a want on that line.
// The want marker may also trail other comment text, so a directive
// comment can carry its own expectation.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want")
				if i < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				spec := c.Text[i+len("// want"):]
				line := pos.Line
				if len(spec) > 0 && (spec[0] == '+' || spec[0] == '-') {
					j := 1
					for j < len(spec) && spec[j] >= '0' && spec[j] <= '9' {
						j++
					}
					off, err := strconv.Atoi(spec[:j])
					if err != nil {
						t.Fatalf("%s:%d: bad want offset in %q", pos.Filename, pos.Line, spec)
					}
					line += off
					spec = spec[j:]
				}
				n := 0
				for {
					spec = strings.TrimLeft(spec, " \t")
					if !strings.HasPrefix(spec, `"`) {
						break
					}
					q, err := strconv.QuotedPrefix(spec)
					if err != nil {
						t.Fatalf("%s:%d: bad want string: %v", pos.Filename, pos.Line, err)
					}
					spec = spec[len(q):]
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: unquoting %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: compiling want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{
						file: filepath.Base(pos.Filename),
						line: line,
						re:   re,
						text: pat,
					})
					n++
				}
				if n == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<name> as package fixture/<name>, runs
// the one analyzer over it, and checks the diagnostics against the want
// comments exactly: every want must be matched by a distinct diagnostic
// on its line, and every diagnostic must be claimed by a want.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	runFixturePkgs(t, a, name)
}

// runFixturePkgs is runFixture over several fixture directories loaded
// into one Program — for passes whose verdict on one package depends on
// another (determinism's import closure, noalloc's callee annotations).
// Want comments are collected from every named package.
func runFixturePkgs(t *testing.T, a *Analyzer, names ...string) {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, name := range names {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	claimed := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if claimed[i] || filepath.Base(d.Pos.Filename) != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				claimed[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.text)
		}
	}
	for i, d := range diags {
		if !claimed[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}
