package analysis

import (
	"go/ast"
	"go/types"
)

// NewDeterminism builds the determinism pass. Its scope is the
// packages matching the given path prefixes plus every loaded module
// package they import, transitively: a helper package that
// deterministic code imports is deterministic code too, whether or not
// anything reaches the offending line today. Every source inside the
// scope is a finding.
//
// Sources:
//
//   - any reference to time.Now or time.Since — wall-clock reads make
//     nominally identical runs diverge; latency-measurement sites carry
//     //copart:wallclock with a justification.
//   - any use of a math/rand (or math/rand/v2) top-level function that
//     draws from the global, unseeded source. Only explicitly seeded
//     generators (rand.New(rand.NewSource(seed))) keep runs
//     reproducible, which is the convention the whole repo follows.
//   - map-range loops whose iteration order can reach an output: a loop
//     body that writes to a stream (fmt.Print*/Fprint*, Write*) or
//     appends to a slice declared outside the loop that is never sorted
//     afterwards in the same function. Go randomizes map iteration
//     order, so such loops silently produce run-dependent results;
//     //copart:unordered marks loops whose order genuinely cannot
//     matter.
func NewDeterminism(scope ...string) *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads, global RNG draws, and order-leaking map iteration in deterministic packages and their module imports",
	}
	a.Run = func(pass *Pass) error {
		if !importClosure(pass.Prog, scope)[pass.Pkg.Path] {
			return nil
		}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				checkWallClock(pass, f, decl)
				checkGlobalRand(pass, decl)
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkMapOrder(pass, f, fd)
				}
			}
		}
		return nil
	}
	return a
}

// DefaultDeterministicPackages is the repo's deterministic core: every
// package whose outputs must be bit-identical across runs, worker
// counts, and cache configurations (pinned at runtime by
// TestParallelDeterminism and the fleet -verify mode). The determinism
// pass widens it to the module packages these import.
var DefaultDeterministicPackages = []string{
	"repro/internal/machine",
	"repro/internal/core",
	"repro/internal/policies",
	"repro/internal/matching",
	"repro/internal/experiments",
	"repro/internal/fleet",
	"repro/internal/trace",
}

// importClosure returns the paths of the program's packages that match
// scope, plus every program package they import, transitively.
func importClosure(prog *Program, scope []string) map[string]bool {
	loaded := map[string]bool{}
	var queue []*types.Package
	for _, pkg := range prog.Pkgs {
		loaded[pkg.Path] = true
		if inScope(pkg.Path, scope) {
			queue = append(queue, pkg.Types)
		}
	}
	closure := map[string]bool{}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if closure[p.Path()] || !loaded[p.Path()] {
			continue
		}
		closure[p.Path()] = true
		queue = append(queue, p.Imports()...)
	}
	return closure
}

func checkWallClock(pass *Pass, f *ast.File, decl ast.Decl) {
	ast.Inspect(decl, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := funcObj(pass.Pkg, sel)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		if name := fn.Name(); (name == "Now" || name == "Since") && !pass.Directives.Suppressed(f, sel.Pos(), DirWallclock) {
			pass.Reportf(sel.Pos(), "wall-clock read time.%s in deterministic package; inject a clock or annotate with //copart:wallclock <reason>", name)
		}
		return true
	})
}

// seededRandFuncs are the math/rand (and v2) top-level functions that
// construct explicitly seeded generators rather than drawing from the
// global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func checkGlobalRand(pass *Pass, decl ast.Decl) {
	ast.Inspect(decl, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := funcObj(pass.Pkg, sel)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
			return true
		}
		// Methods (on *rand.Rand etc.) always run against an explicitly
		// constructed generator; only package-level functions reach the
		// global source.
		if fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		if !seededRandFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(), "top-level rand.%s draws from the global unseeded source; use rand.New(rand.NewSource(seed))", fn.Name())
		}
		return true
	})
}

// outputMethodNames are method names treated as order-sensitive sinks
// when called inside a map-range body: stream writers and hash/digest
// accumulators.
var outputMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// fmtOutputFuncs are fmt functions that emit directly to a stream.
var fmtOutputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func checkMapOrder(pass *Pass, f *ast.File, fd *ast.FuncDecl) {
	pkg := pass.Pkg
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.Directives.Suppressed(f, rng.Pos(), DirUnordered) {
			return true
		}
		checkMapRangeBody(pass, fd, rng)
		return true
	})
}

// checkMapRangeBody reports order leaks out of one map-range loop.
func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := funcObj(pass.Pkg, n.Fun)
			switch {
			case fn == nil:
			case fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtOutputFuncs[fn.Name()]:
				pass.Reportf(n.Pos(), "fmt.%s inside map iteration emits in randomized order; collect and sort first, or annotate the loop with //copart:unordered <reason>", fn.Name())
			case fn.Type().(*types.Signature).Recv() != nil && outputMethodNames[fn.Name()]:
				pass.Reportf(n.Pos(), "%s inside map iteration feeds a writer/digest in randomized order; collect and sort first, or annotate the loop with //copart:unordered <reason>", fn.Name())
			}
		case *ast.AssignStmt:
			checkMapRangeAppend(pass, fd, rng, n)
		}
		return true
	})
}

// checkMapRangeAppend reports `s = append(s, …)` inside a map-range
// body when s is declared outside the loop and never sorted later in
// the same function.
func checkMapRangeAppend(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) {
	pkg := pass.Pkg
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(pkg, call.Fun, "append") || i >= len(as.Lhs) {
			continue
		}
		dest, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := pkg.Info.Uses[dest]
		if obj == nil {
			obj = pkg.Info.Defs[dest]
		}
		if obj == nil {
			continue
		}
		// Only slices accumulated across iterations leak order: the
		// destination must be declared outside the loop.
		if rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End() {
			continue
		}
		if sortedAfter(pkg, fd, rng, obj) {
			continue
		}
		pass.Reportf(as.Pos(), "append to %q inside map iteration leaks randomized order (no subsequent sort in %s); sort the result, or annotate the loop with //copart:unordered <reason>",
			dest.Name, fd.Name.Name)
	}
}

// sortFuncs maps package path → function names that establish a
// deterministic order over their first argument.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedAfter reports whether obj is passed to a recognized sort
// function after the range loop, anywhere later in the function body.
func sortedAfter(pkg *Package, fd *ast.FuncDecl, rng *ast.RangeStmt, obj any) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		fn := funcObj(pkg, call.Fun)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		names, ok := sortFuncs[fn.Pkg().Path()]
		if !ok || !names[fn.Name()] {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// funcObj resolves an expression to the *types.Func it references, if
// any (plain identifier or package-qualified selector).
func funcObj(pkg *Package, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// isBuiltin reports whether e references the named builtin.
func isBuiltin(pkg *Package, e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pkg.Info.Uses[id].(*types.Builtin)
	return ok
}
