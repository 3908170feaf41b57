package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// NewDirectives builds the hygiene pass over the //copart: vocabulary
// itself. Annotations are load-bearing — a suppression that silently
// detaches from its code re-enables nothing and hides a violation — so
// every directive must:
//
//   - use a known name (typos like //copart:noallocs are errors);
//   - sit where its kind belongs: noalloc in a function's doc comment,
//     line directives (wallclock, allocok, floateq, unordered) on the
//     same line as code or the line immediately above a statement or
//     declaration;
//   - carry a justification: line directives suppress a finding, and a
//     suppression without a reason is unreviewable.
//
// This is what keeps the annotation set from rotting as code moves.
func NewDirectives() *Analyzer {
	a := &Analyzer{
		Name: "directives",
		Doc:  "validate //copart: directive names, placement, and justifications",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Pkg.Files {
			for _, d := range pass.Directives.byFile[f] {
				checkDirective(pass, f, d)
			}
		}
		return nil
	}
	return a
}

// vocabulary lists the known directive names, sorted, for the
// unknown-directive message.
func vocabulary() string {
	names := make([]string, 0, len(knownDirectives))
	for name := range knownDirectives {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func checkDirective(pass *Pass, f *ast.File, d Directive) {
	isLine, known := knownDirectives[d.Name]
	switch {
	case !known:
		pass.Reportf(d.Pos, "unknown directive //copart:%s (vocabulary: %s)", d.Name, vocabulary())
	case !isLine:
		if !d.InDoc {
			pass.Reportf(d.Pos, "//copart:noalloc must be part of a function declaration's doc comment")
		}
	default:
		if d.Args == "" {
			pass.Reportf(d.Pos, "//copart:%s needs a justification: //copart:%s <reason>", d.Name, d.Name)
		}
		if d.InDoc {
			pass.Reportf(d.Pos, "//copart:%s is a line directive and cannot cover a whole function; put it on the offending line", d.Name)
			return
		}
		lines := pass.Directives.codeLines[f]
		if !lines[d.Line] && !lines[d.Line+1] {
			pass.Reportf(d.Pos, "dangling //copart:%s: no statement or declaration on this line or the next — the code it covered has moved", d.Name)
		}
	}
}
