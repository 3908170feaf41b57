package analysis

import (
	"go/ast"
	"go/types"
)

// NewFloatCmp builds the float-equality pass scoped to the given
// package-path prefixes. In scoring and fairness code, == and != on
// floating-point operands are almost always wrong: values equal in real
// arithmetic differ in their last ULPs depending on evaluation order —
// the retired score memo and streaming Eq. 2 tracker moved park-on-best
// ties on 18 of 8 192 fleet nodes that way (DESIGN.md §9) — so exact
// comparison silently flips branches between equivalent runs.
//
// Comparison against an exact-zero constant is exempt — zero is the
// repo-wide "feature disabled / sentinel" value (MeasurementNoise == 0,
// mu == 0), assigned literally and never computed. Every other exact
// comparison needs an epsilon helper or //copart:floateq <reason>.
//
// Struct equality is covered too: comparing structs with float fields
// via == hides the same hazard one level down.
func NewFloatCmp(scope ...string) *Analyzer {
	a := &Analyzer{
		Name: "floatcmp",
		Doc:  "flag ==/!= on floating-point operands in scoring and fairness packages",
	}
	a.Run = func(pass *Pass) error {
		if !inScope(pass.Pkg.Path, scope) {
			return nil
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				if op := be.Op.String(); op != "==" && op != "!=" {
					return true
				}
				checkFloatCmp(pass, f, be)
				return true
			})
		}
		return nil
	}
	return a
}

// DefaultScoringPackages is where float comparisons decide fairness
// outcomes: scores, slowdowns, unfairness, bandwidth grants.
var DefaultScoringPackages = []string{
	"repro/internal/core",
	"repro/internal/fairness",
	"repro/internal/machine",
	"repro/internal/policies",
	"repro/internal/matching",
	"repro/internal/membw",
}

func checkFloatCmp(pass *Pass, f *ast.File, be *ast.BinaryExpr) {
	lt, lok := pass.Pkg.Info.Types[be.X]
	rt, rok := pass.Pkg.Info.Types[be.Y]
	if !lok || !rok {
		return
	}
	floaty := hasFloat(lt.Type) || hasFloat(rt.Type)
	if !floaty {
		return
	}
	if isZeroConst(lt) || isZeroConst(rt) {
		return
	}
	if pass.Directives.Suppressed(f, be.Pos(), DirFloatEq) {
		return
	}
	what := "floating-point operands"
	if _, ok := lt.Type.Underlying().(*types.Struct); ok {
		what = "a struct with floating-point fields"
	}
	pass.Reportf(be.Pos(), "%s compares %s exactly; use an epsilon helper or annotate with //copart:floateq <reason>", be.Op, what)
}

// hasFloat reports whether t is a float or a struct/array containing
// one (bounded depth; comparable types only ever nest a few levels).
func hasFloat(t types.Type) bool {
	return hasFloatDepth(t, 0)
}

func hasFloatDepth(t types.Type, depth int) bool {
	if depth > 4 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsFloat|types.IsComplex) != 0
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasFloatDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return hasFloatDepth(u.Elem(), depth+1)
	}
	return false
}

// isZeroConst reports whether the operand is a compile-time constant
// equal to exact zero.
func isZeroConst(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}
