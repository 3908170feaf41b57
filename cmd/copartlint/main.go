// Command copartlint runs the repo's custom static-analysis suite
// (internal/analysis) over the module: determinism (over the
// deterministic packages and their module imports), noalloc (with its
// callee contract), directive hygiene, and floatcmp. It is the
// compile-time counterpart of the runtime guard tests — `make lint` and
// CI run it before the test suite, so a wall-clock read added to
// internal/machine or an unannotated helper called from a
// //copart:noalloc function fails the build instead of waiting for the
// one test that might notice.
//
// Usage:
//
//	copartlint [-dir .] [-list] [-json] [-pass name[,name...]] [./...]
//
// The module rooted at -dir is always analyzed in its entirety (the
// optional ./... argument is accepted for familiarity). -pass restricts
// the run to a comma-separated subset of the analyzers -list prints.
// -json replaces the line-per-finding output with an indented JSON
// array of findings (always an array, "[]" when clean) on stdout; the
// exit codes do not change. Exit status is 1 when findings are
// reported, 2 on internal failure or bad usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("copartlint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("dir", ".", "module root to analyze")
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	passes := fs.String("pass", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := analysis.Default()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *passes != "" {
		var err error
		analyzers, err = selectAnalyzers(analyzers, *passes)
		if err != nil {
			fmt.Fprintln(errOut, "copartlint:", err)
			return 2
		}
	}
	for _, arg := range fs.Args() {
		if arg != "./..." {
			fmt.Fprintf(errOut, "copartlint: only the whole module is analyzed; unsupported argument %q\n", arg)
			return 2
		}
	}
	diags, err := lint(*dir, analyzers)
	if err != nil {
		fmt.Fprintln(errOut, "copartlint:", err)
		return 2
	}
	if *jsonOut {
		if err := analysis.WriteJSON(out, diags); err != nil {
			fmt.Fprintln(errOut, "copartlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "copartlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers filters the suite down to the named passes, keeping
// suite order. An unknown name is a usage error, not a silent no-op: a
// typo in a CI invocation must fail loudly rather than lint nothing.
func selectAnalyzers(all []*analysis.Analyzer, names string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if byName[n] == nil {
			known := make([]string, 0, len(all))
			for _, a := range all {
				known = append(known, a.Name)
			}
			return nil, fmt.Errorf("unknown pass %q (available: %s)", n, strings.Join(known, ", "))
		}
		want[n] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-pass given but no pass names parsed from %q", names)
	}
	selected := make([]*analysis.Analyzer, 0, len(want))
	for _, a := range all {
		if want[a.Name] {
			selected = append(selected, a)
		}
	}
	return selected, nil
}

func lint(dir string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		return nil, err
	}
	return analysis.Run(pkgs, analyzers)
}
