// Package analysis is copartlint's engine: a small, dependency-free
// reimplementation of the go/analysis analyzer shape (golang.org/x/tools
// is deliberately not vendored) plus four CoPart-specific passes that
// turn the repo's load-bearing runtime guarantees into compile-time
// checks:
//
//   - determinism: wall-clock reads, global math/rand draws, and
//     order-leaking map iteration are findings anywhere in the
//     deterministic packages or in the module packages they import,
//     transitively.
//   - noalloc: functions annotated //copart:noalloc must not contain
//     allocating constructs, and every module function they call must
//     carry //copart:noalloc too, so the contract is explicit at each
//     callee instead of inferred.
//   - directives: every //copart: annotation must be spelled correctly
//     and attached to a real declaration or statement, so annotations
//     cannot rot when the code under them moves.
//   - floatcmp: scoring and fairness packages must not compare floats
//     with == or != (values equal in real arithmetic differ in their
//     last ulps with evaluation order), except against an exact-zero
//     sentinel.
//
// Every pass is per-package. The division of labor with the runtime
// guard tests (TestSolveAllocationGuard, TestManagerPeriodAllocationGuard,
// TestParallelDeterminism under -race) is deliberate: the guard tests
// pin the end-to-end property on the inputs they exercise; these passes
// pin the hygiene of every function in every build. See DESIGN.md §10.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
)

// Diagnostic is one finding, positioned for editors and CI logs.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string { return d.Finding().String() }

// Finding is the machine-readable form of a Diagnostic: the schema
// behind `copartlint -json` and the shared formatting used by every
// tool that reports findings (cmd/benchguard borrows it for its
// offender summary, so lint and bench failures read the same way).
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Finding converts the diagnostic to its serializable form.
func (d Diagnostic) Finding() Finding {
	return Finding{
		File:     d.Pos.Filename,
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}
}

// String renders "file:line:col: [analyzer] message", omitting the
// position parts that are zero (benchguard findings carry no line).
func (f Finding) String() string {
	loc := f.File
	if f.Line > 0 {
		loc = fmt.Sprintf("%s:%d", loc, f.Line)
		if f.Col > 0 {
			loc = fmt.Sprintf("%s:%d", loc, f.Col)
		}
	}
	return fmt.Sprintf("%s: [%s] %s", loc, f.Analyzer, f.Message)
}

// WriteJSON emits the diagnostics as an indented JSON array of
// Findings — always an array, "[]" for a clean run, so consumers can
// decode unconditionally.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	findings := make([]Finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, d.Finding())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// Analyzer is one named pass. Run inspects one package at a time and is
// invoked once per package. Returning an error aborts the whole lint
// run (reserved for internal failures, not findings).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one package. Prog gives read
// access to the rest of the module (imports, other packages'
// directives); findings are reported only into Pkg.
type Pass struct {
	Analyzer   *Analyzer
	Prog       *Program
	Pkg        *Package
	Directives *DirectiveIndex

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Program is the whole loaded module: every package plus the lazily
// built per-package directive indexes the passes share.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	dirs map[*Package]*DirectiveIndex
}

// NewProgram assembles a Program over packages that share a FileSet
// (packages from one Loader always do).
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, dirs: map[*Package]*DirectiveIndex{}}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	return prog
}

// Directives returns the package's directive index, built on first use
// and shared across analyzers.
func (p *Program) Directives(pkg *Package) *DirectiveIndex {
	ix, ok := p.dirs[pkg]
	if !ok {
		ix = IndexDirectives(pkg)
		p.dirs[pkg] = ix
	}
	return ix
}

// Run applies every analyzer to every package of the program the
// packages form and returns the combined findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			pass := &Pass{
				Analyzer:   a,
				Prog:       prog,
				Pkg:        pkg,
				Directives: prog.Directives(pkg),
				diags:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
