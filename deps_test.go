package brainprint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// servingRoots are the packages a request passes through: the HTTP
// service, the router, replication, the session and every gallery
// engine (internal/gallery and each package below it).
var servingRoots = []string{
	"internal/serve",
	"internal/router",
	"internal/replicate",
	"internal/attacker",
	"internal/gallery/...",
}

// servingAllowlist is every brainprint package the serving roots may
// link, themselves included. The research path — the experiment
// registry and drivers, the stateless attacks in internal/core, the
// synthetic cohorts, t-SNE — is not on it: a request never runs them.
var servingAllowlist = []string{
	"internal/attacker",
	"internal/defense",
	"internal/gallery",
	"internal/gallery/ivf",
	"internal/gallery/live",
	"internal/gallery/shard",
	"internal/linalg",
	"internal/match",
	"internal/parallel",
	"internal/replicate",
	"internal/router",
	"internal/sampling",
	"internal/serve",
	"internal/stats",
}

// TestServingPathImportsAllowlist walks the non-test imports of the
// serving roots transitively, parsing the sources the way
// doclint_test.go does, and requires the reached brainprint packages to
// be exactly the allowlist: a new dependency (internal/experiments or
// internal/core coming back) fails, and so does an allowlist entry
// nothing links any more.
func TestServingPathImportsAllowlist(t *testing.T) {
	var queue []string
	for _, root := range servingRoots {
		base, all := strings.CutSuffix(root, "/...")
		if !all {
			queue = append(queue, root)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && hasGoSource(t, path) {
				queue = append(queue, filepath.ToSlash(path))
			}
			return err
		})
		if err != nil {
			t.Fatalf("walking %s: %v", base, err)
		}
	}
	reached := map[string][]string{} // package → the package that first imported it
	for _, p := range queue {
		reached[p] = nil
	}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, imp := range packageImports(t, dir) {
			dep, ok := strings.CutPrefix(imp, "brainprint/")
			if !ok {
				continue
			}
			if _, seen := reached[dep]; !seen {
				reached[dep] = append(slices.Clip(reached[dir]), dir)
				queue = append(queue, dep)
			}
		}
	}
	for dep, chain := range reached {
		if !slices.Contains(servingAllowlist, dep) {
			t.Errorf("serving path links %s (via %s)", dep, strings.Join(chain, " → "))
		}
	}
	for _, dep := range servingAllowlist {
		if _, ok := reached[dep]; !ok {
			t.Errorf("allowlist names %s, which the serving path no longer links", dep)
		}
	}
}

// hasGoSource reports whether dir holds a non-test go file.
func hasGoSource(t *testing.T, dir string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// packageImports returns the import paths of dir's non-test go files,
// on every platform (build constraints are not evaluated, so an
// architecture-specific file's imports count too).
func packageImports(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatalf("%s: import %s: %v", dir, spec.Path.Value, err)
				}
				out = append(out, path)
			}
		}
	}
	return out
}
