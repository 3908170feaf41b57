package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	codeSpanRE = regexp.MustCompile("`([^`]+)`")
	citedRE    = regexp.MustCompile(`(?:^|[^\w])((?:Test|Fuzz)[A-Z0-9_]\w*)`)
)

// TestDocsCiteDefinedTests fails when DESIGN.md, EXPERIMENTS.md or
// README.md names a test or fuzz target in a code span that no
// _test.go file in the repository defines, so prose cannot keep citing
// a test after it was renamed or deleted.
func TestDocsCiteDefinedTests(t *testing.T) {
	defined := map[string]bool{}
	for _, path := range repoFiles(t, "_test.go") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
	}
	if !defined["TestDocsCiteDefinedTests"] {
		t.Fatal("the walk did not find this file's own test: it scanned the wrong tree")
	}
	cited := 0
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpanRE.FindAllStringSubmatch(withoutFences(string(text)), -1) {
			for _, m := range citedRE.FindAllStringSubmatch(span[1], -1) {
				cited++
				if !defined[m[1]] {
					t.Errorf("%s cites `%s`, which no _test.go file defines", doc, m[1])
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no test citations found: the code-span scan is broken")
	}
}

// repoFiles lists the repository's files whose names end in suffix,
// skipping directories named .* or _* (VCS metadata, generated trees).
func repoFiles(t *testing.T, suffix string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, suffix) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// withoutFences drops the lines of fenced code blocks, whose backticks
// would pair with the prose's code spans.
func withoutFences(text string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
			continue
		}
		if !in {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

var (
	// repoPathRE matches a path under one of the repository's top-level
	// code directories, optionally written ./dir/...
	repoPathRE = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:internal|cmd|benchmark|examples|scripts)/[\w./-]*)`)
	// pkgFileRE matches the short form pkg/file.go of a file under internal/.
	pkgFileRE = regexp.MustCompile(`(?:^|[^\w/.-])(([a-z][a-z0-9]*)/\w+\.go)\b`)
	// selectorRE matches a Go selector ending a package path (pkg.Name).
	selectorRE = regexp.MustCompile(`\.[A-Z]\w*$`)
)

// TestDocsCiteExistingPaths fails when DESIGN.md, EXPERIMENTS.md or
// README.md names a repository path in a code span that does not exist,
// so prose cannot keep describing a file or package after it was moved
// or deleted. A path is one under internal/, cmd/, benchmark/, examples/
// or scripts/ (a trailing ... or /, or a selector .Name, dropped), or
// the short form pkg/file.go of a package under internal/ (runtime/proc.go
// names the Go runtime's). A pattern is checked up to its first wildcard.
func TestDocsCiteExistingPaths(t *testing.T) {
	cited := 0
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpanRE.FindAllStringSubmatch(withoutFences(string(text)), -1) {
			var paths []string
			for _, m := range repoPathRE.FindAllStringSubmatch(span[1], -1) {
				p := selectorRE.ReplaceAllString(strings.TrimSuffix(m[1], "..."), "")
				paths = append(paths, strings.TrimRight(p, "./"))
			}
			for _, m := range pkgFileRE.FindAllStringSubmatch(span[1], -1) {
				if fi, err := os.Stat("internal/" + m[2]); err == nil && fi.IsDir() {
					paths = append(paths, "internal/"+m[1])
				}
			}
			for _, p := range paths {
				cited++
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s cites `%s`, but %s does not exist", doc, span[1], p)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no path citations found: the code-span scan is broken")
	}
}

// changeNumberRE matches a pull-request or issue number (PR 14, PRs 16–42,
// ISSUE 50).
var changeNumberRE = regexp.MustCompile(`\b(?:PRs?|ISSUEs?) ?#?\d+`)

// TestDesignNamesNoChangeNumbers fails when DESIGN.md names a pull
// request or issue by number: the design document describes the code as
// it is, and how it got there belongs to CHANGES.md and the git log.
func TestDesignNamesNoChangeNumbers(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(text), "\n") {
		for _, m := range changeNumberRE.FindAllString(line, -1) {
			t.Errorf("DESIGN.md:%d names %q", i+1, m)
		}
	}
}

var (
	// headingNumberRE matches a numbered DESIGN.md heading (## 5b. …,
	// ### 9.1 …) and captures its number.
	headingNumberRE = regexp.MustCompile(`(?m)^#+ (\d+[a-z]?(?:\.\d+)*)\.? `)
	// sectionCiteRE matches a DESIGN.md §n citation, also one a line
	// break and a comment marker split.
	sectionCiteRE = regexp.MustCompile(`DESIGN\.md[\s/]*§ ?(\d+[a-z]?(?:\.\d+)*)`)
)

// TestDesignSectionCitesResolve fails when a .go file, README.md or
// EXPERIMENTS.md cites a DESIGN.md section (DESIGN.md §n) that DESIGN.md
// has no heading for, so renumbering the design document cannot leave a
// stale pointer behind.
func TestDesignSectionCitesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range headingNumberRE.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	cited := 0
	for _, path := range append([]string{"README.md", "EXPERIMENTS.md"}, repoFiles(t, ".go")...) {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sectionCiteRE.FindAllStringSubmatch(string(text), -1) {
			cited++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which DESIGN.md has no heading for", path, m[1])
			}
		}
	}
	if cited == 0 {
		t.Fatal("no DESIGN.md section citations found: the scan is broken")
	}
}
