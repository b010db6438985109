package brainprint_test

// The exported-comment lint, enforced as a test so `go test ./...`
// (and every CI leg) holds the documentation bar without external
// tooling. CI additionally runs revive's `exported` rule over the same
// packages; this test is the self-contained floor that works in any
// environment the repo builds in.
//
// Policy: every exported identifier in the audited packages — types,
// functions, methods, exported struct fields, interface methods, and
// const/var specs — must carry a doc comment (a group comment on the
// enclosing declaration satisfies its specs, matching godoc rendering).
// Zero suppressions: there is no opt-out list.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// docAuditedPackages are the directories (relative to the repo root)
// whose exported surface must be fully documented — the facade and the
// packages named by the PR 4 acceptance criteria.
var docAuditedPackages = []string{
	".",
	"internal/gallery",
	"internal/gallery/shard",
	"internal/gallery/live",
	"internal/gallery/ivf",
	"internal/attacker",
	"internal/experiments",
	"internal/serve",
	"internal/parallel",
	"internal/replicate",
	"internal/router",
	"internal/defense",
}

// TestExportedIdentifiersDocumented walks the audited packages and
// fails with one line per undocumented exported identifier.
func TestExportedIdentifiersDocumented(t *testing.T) {
	var missing []string
	for _, dir := range docAuditedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				missing = append(missing, auditFile(fset, filepath.ToSlash(path), file)...)
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported identifier(s) lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// auditFile reports the undocumented exported identifiers of one file.
func auditFile(fset *token.FileSet, path string, file *ast.File) []string {
	var missing []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s %s", path, p.Line, what, name))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				if rt := receiverName(d.Recv.List[0].Type); rt != "" {
					if !ast.IsExported(rt) {
						continue // method on an unexported type
					}
					name = rt + "." + name
				}
			}
			if d.Doc == nil {
				report(d.Pos(), "func", name)
			} else if !docStartsWith(d.Doc, d.Name.Name) {
				report(d.Pos(), "ill-formed comment on func", name+" (must start with the identifier)")
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if !groupDoc && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					} else if doc := typeDoc(d, s); doc != nil && !docStartsWith(doc, s.Name.Name) {
						report(s.Pos(), "ill-formed comment on type", s.Name.Name+" (must start with the identifier, optionally after an article)")
					}
					missing = append(missing, auditTypeMembers(fset, path, s)...)
				case *ast.ValueSpec:
					// A doc comment on the grouped declaration covers
					// its specs, as godoc renders it; otherwise each
					// exported spec needs its own (or a trailing line
					// comment, which godoc also shows).
					if groupDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), valueKind(d.Tok), n.Name)
						}
					}
				}
			}
		}
	}
	return missing
}

// auditTypeMembers checks exported struct fields and interface methods
// of one exported type spec.
func auditTypeMembers(fset *token.FileSet, path string, s *ast.TypeSpec) []string {
	var missing []string
	var fields *ast.FieldList
	what := "field"
	switch t := s.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields, what = t.Methods, "interface method"
	default:
		return nil
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		if len(f.Names) == 0 {
			continue // embedded: documented by the embedded type
		}
		for _, n := range f.Names {
			if n.IsExported() {
				p := fset.Position(n.Pos())
				missing = append(missing, fmt.Sprintf("%s:%d: %s %s.%s", path, p.Line, what, s.Name.Name, n.Name))
			}
		}
	}
	return missing
}

// typeDoc picks the doc comment covering a type spec: its own, or the
// enclosing declaration's when the spec is the sole member.
func typeDoc(d *ast.GenDecl, s *ast.TypeSpec) *ast.CommentGroup {
	if s.Doc != nil {
		return s.Doc
	}
	if len(d.Specs) == 1 {
		return d.Doc
	}
	return nil
}

// docStartsWith reports whether a doc comment opens with the
// identifier name (optionally after "A", "An", or "The"), the godoc
// convention revive's exported rule enforces. Deprecation notices are
// exempt, matching the linter.
func docStartsWith(doc *ast.CommentGroup, name string) bool {
	text := strings.TrimSpace(doc.Text())
	for _, art := range []string{"A ", "An ", "The "} {
		text = strings.TrimPrefix(text, art)
	}
	return strings.HasPrefix(text, name) || strings.HasPrefix(text, "Deprecated:")
}

// receiverName unwraps a method receiver type to its type name.
func receiverName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr: // generic receiver
		return receiverName(t.X)
	case *ast.IndexListExpr:
		return receiverName(t.X)
	}
	return ""
}

// valueKind renders the declaration keyword for a report line.
func valueKind(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
