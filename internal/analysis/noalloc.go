package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// NewNoAlloc builds the pass that checks functions annotated
// //copart:noalloc for allocating constructs: make/new, slice, map, and
// address-taken composite literals, appends that cannot reuse their
// destination, formatting helpers (fmt.Sprintf and friends), string
// concatenation and string<->[]byte conversions, closure creation,
// goroutine launches, and concrete values boxed into interface
// parameters at call sites.
//
// Two allocation shapes are recognized as part of the repo's zero-alloc
// idiom and exempted without annotation:
//
//   - amortized grow: make assigned to x inside an if whose condition
//     tests cap(x) — scratch buffers grow to a steady-state size and
//     then never allocate again (the shape every guard test pins).
//   - cold error branch: any construct inside an if/else block whose
//     last statement is a return or panic — error paths allocate their
//     fmt.Errorf freely; the hot path falls through.
//
// Everything else needs //copart:allocok <reason> on its line, which
// turns each intentional allocation into reviewed documentation.
//
// The annotation is also a callee contract. When a hot-path call
// (outside a cold branch) names a function or method declared in a
// loaded module package, that callee must carry //copart:noalloc itself
// — so its body gets this same check — or the call line must carry
// //copart:allocok <reason>. Generic callees are
// matched through their declaration (types.Func.Origin). Calls through
// interfaces and function values name no declaration and stay out of
// scope; the runtime allocation guards own those.
func NewNoAlloc() *Analyzer {
	a := &Analyzer{
		Name: "noalloc",
		Doc:  "flag allocating constructs and calls to unannotated module functions inside //copart:noalloc functions",
	}
	a.Run = func(pass *Pass) error {
		var callees *calleeIndex
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if _, ok := pass.Directives.FuncDirective(fd, DirNoalloc); !ok {
					continue
				}
				if callees == nil {
					callees = indexCallees(pass.Prog)
				}
				checkNoAllocFunc(pass, f, fd, callees)
			}
		}
		return nil
	}
	return a
}

// calleeIndex answers the callee contract: which packages are module
// code, and which of their functions carry //copart:noalloc.
type calleeIndex struct {
	module  map[*types.Package]bool
	noalloc map[*types.Func]bool
}

func indexCallees(prog *Program) *calleeIndex {
	ix := &calleeIndex{module: map[*types.Package]bool{}, noalloc: map[*types.Func]bool{}}
	for _, pkg := range prog.Pkgs {
		ix.module[pkg.Types] = true
		for fd, dirs := range prog.Directives(pkg).funcDir {
			for _, d := range dirs {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && d.Name == DirNoalloc {
					ix.noalloc[fn] = true
				}
			}
		}
	}
	return ix
}

// unannotated returns the module function fn declares when the call
// falls under the callee contract without meeting it, else nil.
func (ix *calleeIndex) unannotated(fn *types.Func) *types.Func {
	fn = fn.Origin()
	if !ix.module[fn.Pkg()] || ix.noalloc[fn] {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil // dynamic dispatch: no declaration to hold the contract
	}
	return fn
}

// checkNoAllocFunc walks one annotated function body.
func checkNoAllocFunc(pass *Pass, f *ast.File, fd *ast.FuncDecl, callees *calleeIndex) {
	pkg := pass.Pkg
	aliases := collectAliases(fd)
	emptyLocals := collectEmptyLocalSlices(pkg, fd)
	report := func(pos ast.Node, format string, args ...any) {
		if pass.Directives.Suppressed(f, pos.Pos(), DirAllocOK) {
			return
		}
		pass.Reportf(pos.Pos(), format, args...)
	}
	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if inColdBranch(stack) {
			// Constructs under this node are re-inspected only to keep the
			// traversal simple; the branch test fires for them too.
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNoAllocCall(pkg, fd, n, stack, aliases, emptyLocals, callees, report)
		case *ast.CompositeLit:
			checkCompositeLit(pkg, n, stack, report)
		case *ast.BinaryExpr:
			checkStringConcat(pkg, n, report)
		case *ast.FuncLit:
			report(n, "closure literal allocates in //copart:noalloc function %s; hoist it or annotate with //copart:allocok <reason>", fd.Name.Name)
			return false // the closure body is the closure's business
		case *ast.GoStmt:
			report(n, "goroutine launch allocates in //copart:noalloc function %s", fd.Name.Name)
		}
		return true
	})
}

// allocatingFuncs maps package path → function names that allocate on
// every call and have no place on a zero-alloc path.
var allocatingFuncs = map[string]map[string]bool{
	"fmt":     {"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true, "Appendf": true},
	"errors":  {"New": true},
	"strconv": {"Itoa": true, "FormatInt": true, "FormatUint": true, "FormatFloat": true, "Quote": true},
	"strings": {"Join": true, "Repeat": true, "Replace": true, "ReplaceAll": true, "Split": true},
}

func checkNoAllocCall(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node,
	aliases map[string]string, emptyLocals map[types.Object]bool, callees *calleeIndex,
	report func(ast.Node, string, ...any)) {
	// Type conversions: string <-> []byte/[]rune copy their operand,
	// except in map-index position where the compiler elides the copy.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		checkStringConversion(pkg, call, stack, report)
		return
	}
	if isBuiltin(pkg, call.Fun, "make") {
		if !isAmortizedGrow(pkg, call, stack) {
			report(call, "make allocates in //copart:noalloc function %s; reuse a scratch buffer or annotate with //copart:allocok <reason>", fd.Name.Name)
		}
		return
	}
	if isBuiltin(pkg, call.Fun, "new") {
		report(call, "new allocates in //copart:noalloc function %s", fd.Name.Name)
		return
	}
	if isBuiltin(pkg, call.Fun, "append") {
		checkAppend(pkg, fd, call, stack, aliases, emptyLocals, report)
		return
	}
	if fn := funcObj(pkg, call.Fun); fn != nil && fn.Pkg() != nil {
		if names, ok := allocatingFuncs[fn.Pkg().Path()]; ok && names[fn.Name()] {
			report(call, "%s.%s allocates in //copart:noalloc function %s", fn.Pkg().Name(), fn.Name(), fd.Name.Name)
			return
		}
		if callee := callees.unannotated(fn); callee != nil {
			report(call, "call to unannotated %s in //copart:noalloc function %s; annotate the callee //copart:noalloc or the call //copart:allocok <reason>",
				funcDisplayName(callee), fd.Name.Name)
		}
	}
	checkInterfaceBoxing(pkg, fd, call, report)
}

// funcDisplayName renders pkg.Func, or pkg.Type.Method for methods
// (pointer receivers stripped).
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Name() + "." + name
}

// checkAppend enforces the reuse discipline: append must write back
// into the slice it extends (possibly through a resliced or aliased
// form), and that slice must not start empty on every call.
func checkAppend(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node,
	aliases map[string]string, emptyLocals map[types.Object]bool,
	report func(ast.Node, string, ...any)) {
	if len(call.Args) == 0 {
		return
	}
	as, idx := appendAssign(call, stack)
	if as == nil {
		report(call, "append result escapes (not assigned back) in //copart:noalloc function %s", fd.Name.Name)
		return
	}
	destStr := resolveAlias(types.ExprString(as.Lhs[idx]), aliases)
	base := sliceBase(call.Args[0])
	baseStr := resolveAlias(types.ExprString(base), aliases)
	if destStr != baseStr {
		report(call, "append copies %s into %s (grow-into-new-slice) in //copart:noalloc function %s; append in place or annotate with //copart:allocok <reason>", baseStr, destStr, fd.Name.Name)
		return
	}
	if id, ok := as.Lhs[idx].(*ast.Ident); ok {
		obj := pkg.Info.Uses[id]
		if obj == nil {
			obj = pkg.Info.Defs[id]
		}
		if obj != nil && emptyLocals[obj] {
			report(call, "append to %s, which starts empty on every call, allocates in //copart:noalloc function %s; use a reusable scratch buffer", id.Name, fd.Name.Name)
		}
	}
}

// appendAssign finds the assignment consuming an append call and the
// matching LHS index, or nil when the result is used any other way.
func appendAssign(call *ast.CallExpr, stack []ast.Node) (*ast.AssignStmt, int) {
	if len(stack) == 0 {
		return nil, 0
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok {
		return nil, 0
	}
	for i, rhs := range as.Rhs {
		if rhs == ast.Expr(call) && i < len(as.Lhs) {
			return as, i
		}
	}
	return nil, 0
}

// sliceBase strips slice expressions: s[a:b] → s, recursively.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		se, ok := e.(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = se.X
	}
}

// collectAliases records simple `x := expr` bindings so the append
// reuse check can see through local views of a scratch field
// (e.g. pool := sc.producers[t]).
func collectAliases(fd *ast.FuncDecl) map[string]string {
	aliases := map[string]string{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok.String() != ":=" || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if _, isCall := as.Rhs[0].(*ast.CallExpr); isCall {
			return true
		}
		aliases[id.Name] = types.ExprString(sliceBase(as.Rhs[0]))
		return true
	})
	return aliases
}

// resolveAlias chases simple alias chains with a small bound.
func resolveAlias(s string, aliases map[string]string) string {
	for i := 0; i < 4; i++ {
		next, ok := aliases[s]
		if !ok || next == s {
			return s
		}
		s = next
	}
	return s
}

// collectEmptyLocalSlices records slice variables that are empty at
// every function entry: `var s []T` and `s := []T{}` declarations.
func collectEmptyLocalSlices(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	locals := map[types.Object]bool{}
	record := func(id *ast.Ident) {
		if obj := pkg.Info.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				locals[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, id := range vs.Names {
					record(id)
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" {
				return true
			}
			for i, rhs := range n.Rhs {
				cl, ok := rhs.(*ast.CompositeLit)
				if !ok || len(cl.Elts) != 0 || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					record(id)
				}
			}
		}
		return true
	})
	return locals
}

// isAmortizedGrow recognizes `if cap(x) < n { x = make(...) }`: the
// make is assigned to x and some enclosing if-condition reads cap(x).
func isAmortizedGrow(pkg *Package, call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 {
		return false
	}
	dest := types.ExprString(as.Lhs[0])
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if ok && isBuiltin(pkg, c.Fun, "cap") && len(c.Args) == 1 &&
				types.ExprString(c.Args[0]) == dest {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// checkCompositeLit flags slice and map literals (heap-backed storage)
// and address-taken literals (which escape).
func checkCompositeLit(pkg *Package, lit *ast.CompositeLit, stack []ast.Node,
	report func(ast.Node, string, ...any)) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		report(lit, "slice literal allocates its backing array; reuse a scratch buffer or annotate with //copart:allocok <reason>")
		return
	case *types.Map:
		report(lit, "map literal allocates; reuse a scratch map or annotate with //copart:allocok <reason>")
		return
	}
	if len(stack) > 0 {
		if ue, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && ue.Op.String() == "&" {
			report(ue, "&composite-literal escapes to the heap; reuse an existing value or annotate with //copart:allocok <reason>")
		}
	}
}

// checkStringConcat flags + on strings (each concatenation builds a new
// string) unless the whole expression is a compile-time constant.
func checkStringConcat(pkg *Package, be *ast.BinaryExpr, report func(ast.Node, string, ...any)) {
	if be.Op.String() != "+" {
		return
	}
	tv, ok := pkg.Info.Types[be]
	if !ok || tv.Value != nil {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		report(be, "string concatenation allocates; use a reusable buffer or annotate with //copart:allocok <reason>")
	}
}

// checkStringConversion flags string([]byte) / []byte(string) style
// conversions, except the map-index form m[string(b)] which the
// compiler performs without copying.
func checkStringConversion(pkg *Package, call *ast.CallExpr, stack []ast.Node,
	report func(ast.Node, string, ...any)) {
	if len(call.Args) != 1 {
		return
	}
	to, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	from, ok := pkg.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	if !stringByteConversion(to.Type, from.Type) {
		return
	}
	if stringConversionElided(pkg, call, stack) {
		return
	}
	report(call, "string/byte-slice conversion copies; keep one representation or annotate with //copart:allocok <reason>")
}

// stringConversionElided reports a read through the m[string(b)]
// map-index form, which the compiler performs without copying. A store
// through the same form — m[string(b)] = v, op=, ++ and -- — copies the
// key, since the map may keep it.
func stringConversionElided(pkg *Package, call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	ix, ok := stack[len(stack)-1].(*ast.IndexExpr)
	if !ok || ix.Index != ast.Expr(call) {
		return false
	}
	xt, ok := pkg.Info.Types[ix.X]
	if !ok {
		return false
	}
	if _, isMap := xt.Type.Underlying().(*types.Map); !isMap {
		return false
	}
	if len(stack) < 2 {
		return true
	}
	switch st := stack[len(stack)-2].(type) {
	case *ast.AssignStmt:
		return !slices.Contains(st.Lhs, ast.Expr(ix))
	case *ast.IncDecStmt:
		return st.X != ast.Expr(ix)
	}
	return true
}

func stringByteConversion(to, from types.Type) bool {
	return (isStringType(to) && isByteSlice(from)) || (isByteSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// checkInterfaceBoxing flags concrete, non-pointer-shaped arguments
// passed to interface parameters — each such call boxes the value on
// the heap. Pointer-shaped values (pointers, channels, maps, funcs,
// unsafe pointers) fit in the interface word directly.
func checkInterfaceBoxing(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr,
	report func(ast.Node, string, ...any)) {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through
			}
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.IsNil() || types.IsInterface(at.Type) {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Basic:
			if b, ok := at.Type.Underlying().(*types.Basic); ok && b.Kind() != types.UnsafePointer {
				report(call, "argument %s boxes into interface parameter in //copart:noalloc function %s", types.ExprString(arg), fd.Name.Name)
			}
			continue
		}
		report(call, "argument %s boxes into interface parameter in //copart:noalloc function %s", types.ExprString(arg), fd.Name.Name)
	}
}

// inColdBranch reports whether the innermost enclosing if/else block
// ends in return or panic — the repo's cold-error-path shape.
func inColdBranch(stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		blk, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		if _, ok := stack[i-1].(*ast.IfStmt); !ok {
			continue
		}
		if len(blk.List) == 0 {
			continue
		}
		switch last := blk.List[len(blk.List)-1].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.ExprStmt:
			if c, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
	}
	return false
}

// walkWithStack is ast.Inspect with the ancestor stack exposed. The
// stack holds the ancestors of n, outermost first, excluding n itself.
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false // children skipped: Inspect sends no nil pop
		}
		stack = append(stack, n)
		return true
	})
}
