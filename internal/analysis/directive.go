package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectivePrefix introduces every copartlint annotation. The comment
// form is the Go directive convention: no space after //, so gofmt
// leaves it alone and go/doc keeps it out of rendered documentation.
const DirectivePrefix = "//copart:"

// The directive vocabulary. Each name has a fixed grammatical home,
// enforced by the directives analyzer:
//
//	//copart:noalloc <reason>   — function doc comment; the function body
//	                              must be free of allocating constructs,
//	                              and every module function it calls must
//	                              carry //copart:noalloc as well.
//	//copart:wallclock <reason> — line directive; permits a wall-clock
//	                              read (time.Now / time.Since) on the
//	                              annotated line in a deterministic
//	                              package.
//	//copart:allocok <reason>   — line directive; permits one allocating
//	                              construct, or one call to an
//	                              unannotated module function, inside a
//	                              //copart:noalloc function.
//	//copart:floateq <reason>   — line directive; permits a float ==/!=
//	                              comparison in a scoring package.
//	//copart:unordered <reason> — line directive; permits a map-range
//	                              loop whose iteration order feeds an
//	                              output without a subsequent sort.
const (
	DirNoalloc   = "noalloc"
	DirWallclock = "wallclock"
	DirAllocOK   = "allocok"
	DirFloatEq   = "floateq"
	DirUnordered = "unordered"
)

// knownDirectives is the full vocabulary; true marks the line
// directives, which attach to a single line of code.
var knownDirectives = map[string]bool{
	DirNoalloc:   false,
	DirWallclock: true,
	DirAllocOK:   true,
	DirFloatEq:   true,
	DirUnordered: true,
}

// Directive is one parsed //copart: comment.
type Directive struct {
	Name    string
	Args    string // free-text justification after the name
	Pos     token.Pos
	Line    int
	File    *ast.File
	InDoc   bool // comment lives in a FuncDecl doc group
	Comment *ast.Comment
}

// DirectiveIndex holds every directive of one package, plus the line
// positions of real code, for attachment and suppression queries.
type DirectiveIndex struct {
	fset    *token.FileSet
	byFile  map[*ast.File][]Directive
	funcDir map[*ast.FuncDecl][]Directive
	// codeLines records, per file, the lines on which a statement,
	// declaration, spec, or field begins — the lines a line directive
	// may legally attach to.
	codeLines map[*ast.File]map[int]bool
}

// ParseDirective splits a //copart: comment into name and args. ok is
// false for ordinary comments.
func ParseDirective(text string) (name, args string, ok bool) {
	rest, ok := strings.CutPrefix(text, DirectivePrefix)
	if !ok {
		return "", "", false
	}
	name, args, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(name), strings.TrimSpace(args), true
}

// IndexDirectives scans a package for //copart: comments and records
// code-line positions for attachment checks.
func IndexDirectives(pkg *Package) *DirectiveIndex {
	ix := &DirectiveIndex{
		fset:      pkg.Fset,
		byFile:    map[*ast.File][]Directive{},
		funcDir:   map[*ast.FuncDecl][]Directive{},
		codeLines: map[*ast.File]map[int]bool{},
	}
	for _, f := range pkg.Files {
		docComments := map[*ast.Comment]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					docComments[c] = fd
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, args, ok := ParseDirective(c.Text)
				if !ok {
					continue
				}
				d := Directive{
					Name:    name,
					Args:    args,
					Pos:     c.Pos(),
					Line:    pkg.Fset.Position(c.Pos()).Line,
					File:    f,
					Comment: c,
				}
				if fd, ok := docComments[c]; ok {
					d.InDoc = true
					ix.funcDir[fd] = append(ix.funcDir[fd], d)
				}
				ix.byFile[f] = append(ix.byFile[f], d)
			}
		}
		lines := map[int]bool{}
		lines[pkg.Fset.Position(f.Package).Line] = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, ast.Decl, ast.Spec, *ast.Field, *ast.KeyValueExpr:
				lines[pkg.Fset.Position(n.Pos()).Line] = true
			}
			return true
		})
		ix.codeLines[f] = lines
	}
	return ix
}

// FuncDirective returns the named directive from fd's doc comment.
func (ix *DirectiveIndex) FuncDirective(fd *ast.FuncDecl, name string) (Directive, bool) {
	for _, d := range ix.funcDir[fd] {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// Suppressed reports whether the named line directive covers pos: the
// directive sits on the same line as pos or on the line immediately
// above it, in the same file.
func (ix *DirectiveIndex) Suppressed(file *ast.File, pos token.Pos, name string) bool {
	line := ix.fset.Position(pos).Line
	for _, d := range ix.byFile[file] {
		if d.Name == name && (d.Line == line || d.Line == line-1) {
			return true
		}
	}
	return false
}

// inScope reports whether the package path is covered by one of the
// scope prefixes (exact match or a path-segment prefix).
func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}
