package brainprint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadcodeInterfaceMethods are method names only the standard library
// calls, through an interface, so no source file of the module need
// name them. A method of one of these names is never reported. (String,
// Error and ServeHTTP are interface methods too, but module code names
// them, so they need no entry.)
var deadcodeInterfaceMethods = map[string]string{
	"Is":     "errors.Is",
	"Unwrap": "errors.Is and errors.As",
}

// deadcodeAllowlist names the functions under internal/ that no
// non-test file calls and that stay anyway, keyed "dir.Func" or
// "dir.Recv.Method", each with its reason.
var deadcodeAllowlist = map[string]string{
	"internal/linalg.NewMatrixFromRows":                            "the fixture constructor the tests of many packages share",
	"internal/linalg.Matrix.EqualApprox":                           "the tolerance check the tests of many packages share",
	"internal/stats.Pearson":                                       "the scalar oracle of the synth and preprocess tests",
	"internal/experiments.GalleryDefenseResult.MonotoneByStrength": "the defense gate's invariant, a method of the facade's GalleryDefenseResult",
}

// TestNoDeadCode fails on a function or method under internal/ that no
// non-test go file of the module (bench/, cmd/ and examples/ included)
// names, and on a method whose receiver type no non-test file names.
// The scan parses the sources the way deps_test.go does and matches
// names, not types. A package-level name (a function, a receiver type)
// counts as used where a file of its own package names it bare or a
// file that imports the package names it as pkg.Name; a method counts
// as used wherever its name appears other than as pkg.Name. Names in a
// function's own declaration, a type's declaration and a method
// receiver do not count. A name shared with live code can hide dead
// code; the scan can only invent it for a method every call of which
// goes through a variable named like an imported package. The
// allowlists above are the only escape hatch, and an entry that no
// longer matches dead code fails too.
func TestNoDeadCode(t *testing.T) {
	type decl struct {
		key, pos        string
		dir, name, recv string
	}
	var (
		inPkg   = map[string]bool{} // "dir.Name" named from its package or as pkg.Name
		members = map[string]bool{} // every name used other than as pkg.Name
		decls   []decl
	)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); file != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		imports := map[string]string{} // local name → package: its dir if in the module
		for _, spec := range f.Imports {
			ip, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			name := path.Base(ip)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			if ip == "brainprint" {
				ip = "."
			}
			imports[name] = strings.TrimPrefix(ip, "brainprint/")
		}
		skip := map[*ast.Ident]bool{}
		for _, dc := range f.Decls {
			switch dc := dc.(type) {
			case *ast.FuncDecl:
				skip[dc.Name] = true
				key, recv := dir+"."+dc.Name.Name, ""
				if dc.Recv != nil {
					recv = receiverType(dc.Recv.List[0].Type)
					key = dir + "." + recv + "." + dc.Name.Name
					ast.Inspect(dc.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
				if strings.HasPrefix(dir, "internal/") {
					decls = append(decls, decl{key, fset.Position(dc.Pos()).String(), dir, dc.Name.Name, recv})
				}
			case *ast.GenDecl:
				for _, spec := range dc.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						skip[ts.Name] = true
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok {
						inPkg[pkg+"."+n.Sel.Name] = true
						skip[x], skip[n.Sel] = true, true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					inPkg[dir+"."+n.Name] = true
					members[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("scanning the module: %v", err)
	}

	matched := map[string]bool{}
	var dead []string
	for _, d := range decls {
		var why []string
		if d.recv == "" {
			if d.name != "init" && d.name != "main" && !inPkg[d.dir+"."+d.name] {
				why = append(why, "no non-test file names it")
			}
		} else {
			if !members[d.name] {
				if _, ok := deadcodeInterfaceMethods[d.name]; ok {
					matched[d.name] = true
				} else {
					why = append(why, "no non-test file names it")
				}
			}
			if !inPkg[d.dir+"."+d.recv] {
				why = append(why, "no non-test file names its receiver type "+d.recv)
			}
		}
		if len(why) == 0 {
			continue
		}
		if _, ok := deadcodeAllowlist[d.key]; ok {
			matched[d.key] = true
			continue
		}
		dead = append(dead, d.pos+": "+d.key+": "+strings.Join(why, "; "))
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("dead code: %s", line)
	}
	for _, list := range []map[string]string{deadcodeAllowlist, deadcodeInterfaceMethods} {
		for key := range list {
			if !matched[key] {
				t.Errorf("allowlist names %s, which is no longer dead code", key)
			}
		}
	}
}

// receiverType returns the base type name of a method receiver:
// "T" for T, *T, T[P] and *T[P].
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
