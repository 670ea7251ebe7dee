package repro_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// exportAllowList names the exports of internal/ that stay without a
// caller the gate counts, each with the reason.
var exportAllowList = map[string]string{
	"internal/frodo.Node.Class": "TestLazyRegistryMatchesEager builds its eager reference from it; " +
		"the test runs whole scenarios through experiment, which imports frodo, so it is an external test",
	"internal/frodo.Node.Registry": "TestLazyRegistryMatchesEager counts the Registry capabilities a run " +
		"starts with; an external test, for the same reason",
}

// stdlibMethods are methods of standard-library interfaces that the
// standard library itself calls (fmt, errors, encoding/json, net/http), so
// their callers are outside the module.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// TestEveryExportHasACaller fails on an exported function, or an exported
// method of an exported type, in internal/ that nothing references except
// its own package's tests (DESIGN.md, "Exported API").
func TestEveryExportHasACaller(t *testing.T) {
	if raceBuild {
		t.Skip("the gate reads source; the race detector adds nothing but time")
	}
	unused, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		if _, ok := exportAllowList[name]; !ok {
			t.Errorf("%s: no caller outside its own package's tests; delete it or unexport it", name)
		}
	}
	for name := range exportAllowList {
		if !slices.Contains(unused, name) {
			t.Errorf("allow-list entry %s has a caller now (or is gone); drop the entry", name)
		}
	}
}

func TestUnusedExportsFixture(t *testing.T) {
	got, err := unusedExports("testdata/apicheck")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.OwnTestOnly", "internal/lib.Shape.Unused", "internal/lib.Unused", "internal/lib.XTestOnly"}
	if !slices.Equal(got, want) {
		t.Errorf("unusedExports(fixture) = %q, want %q", got, want)
	}
}

// unusedExports type-checks the module rooted at root, every package with
// its in-package and external test files, and returns the exported
// functions, and exported methods of exported types, declared in
// internal/ that have no reference from non-test code and none from a test
// in another directory, as "internal/pkg.Func" or
// "internal/pkg.Type.Method", sorted. A method also counts as used when a
// method of the same name is reached through an interface anywhere, or
// when it is one the standard library calls (stdlibMethods).
func unusedExports(root string) ([]string, error) {
	modFile, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(modFile)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	fset := token.NewFileSet()
	c := &apiChecker{
		fset:    fset,
		module:  string(m[1]),
		pkgs:    map[string]*srcPackage{},
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil),
		used:    map[token.Pos]bool{},
		viaIfc:  map[string]bool{},
	}
	if err := c.load(root); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(c.pkgs))
	for path := range c.pkgs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		if err := c.checkWithTests(path); err != nil {
			return nil, err
		}
	}
	return c.unused(paths), nil
}

// srcPackage is one directory's parsed files, split as `go test` builds
// them.
type srcPackage struct {
	files, tests, xtests []*ast.File
	imports              []string // of files, module packages only
}

type apiChecker struct {
	fset    *token.FileSet
	module  string
	pkgs    map[string]*srcPackage
	checked map[string]*types.Package // non-test packages, each checked once
	std     types.Importer
	used    map[token.Pos]bool // declarations with a reference that counts
	viaIfc  map[string]bool    // names of interface methods referenced
}

// load parses every package of the module, skipping what the go command
// skips: testdata, and directories starting with "." or "_".
func (c *apiChecker) load(root string) error {
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := c.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p := &srcPackage{}
		for _, name := range bp.Imports {
			if c.inModule(name) {
				p.imports = append(p.imports, name)
			}
		}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &p.files}, {bp.TestGoFiles, &p.tests}, {bp.XTestGoFiles, &p.xtests}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
			}
		}
		c.pkgs[path] = p
		return nil
	})
}

func (c *apiChecker) inModule(path string) bool {
	return path == c.module || strings.HasPrefix(path, c.module+"/")
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Import is the shared importer: module packages are type-checked here,
// once each, and everything else is the standard library.
func (c *apiChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	p, ok := c.pkgs[path]
	if !ok {
		return c.std.Import(path)
	}
	pkg, err := c.check(path, p.files, c)
	if err != nil {
		return nil, err
	}
	c.checked[path] = pkg
	return pkg, nil
}

// checkWithTests checks path's package, then the package with its
// in-package tests, then its external tests. As under `go test`, the
// external tests see the package with its in-package tests, and so does
// every module package they import that depends on it.
func (c *apiChecker) checkWithTests(path string) error {
	if _, err := c.Import(path); err != nil {
		return err
	}
	p := c.pkgs[path]
	if len(p.tests)+len(p.xtests) == 0 {
		return nil
	}
	withTests, err := c.check(path, append(slices.Clip(p.files), p.tests...), c)
	if err != nil || len(p.xtests) == 0 {
		return err
	}
	variant := map[string]*types.Package{path: withTests}
	var imp importerFunc
	imp = func(dep string) (*types.Package, error) {
		if pkg, ok := variant[dep]; ok {
			return pkg, nil
		}
		if !c.inModule(dep) || !c.dependsOn(dep, path) {
			return c.Import(dep)
		}
		pkg, err := c.check(dep, c.pkgs[dep].files, imp)
		if err != nil {
			return nil, err
		}
		variant[dep] = pkg
		return pkg, nil
	}
	_, err = c.check(path+"_test", p.xtests, imp)
	return err
}

func (c *apiChecker) dependsOn(path, target string) bool {
	p, ok := c.pkgs[path]
	if !ok {
		return false
	}
	for _, dep := range p.imports {
		if dep == target || c.dependsOn(dep, target) {
			return true
		}
	}
	return false
}

// check type-checks one set of files and records what they reference.
// Declarations are keyed by position, so a package checked again with its
// tests, or for an external test, resolves to the same keys, and so does
// a method of an instantiated generic type: it keeps its origin's position.
func (c *apiChecker) check(path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			c.viaIfc[fn.Name()] = true
			continue
		}
		if fn.Pkg() == nil || !c.inModule(fn.Pkg().Path()) {
			continue
		}
		from := c.fset.File(id.Pos()).Name()
		if !strings.HasSuffix(from, "_test.go") || filepath.Dir(from) != filepath.Dir(c.fset.File(fn.Pos()).Name()) {
			c.used[fn.Pos()] = true
		}
	}
	return pkg, nil
}

// unused lists the exports of internal/ packages that no counted
// reference reaches.
func (c *apiChecker) unused(paths []string) []string {
	var out []string
	report := func(path, name string, fn *types.Func) {
		if fn.Exported() && !c.used[fn.Pos()] {
			out = append(out, strings.TrimPrefix(path, c.module+"/")+"."+name)
		}
	}
	for _, path := range paths {
		if !strings.HasPrefix(path, c.module+"/internal/") {
			continue
		}
		scope := c.checked[path].Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				report(path, name, obj)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || !obj.Exported() || obj.IsAlias() {
					continue
				}
				for m := range named.Methods() {
					if !c.viaIfc[m.Name()] && !stdlibMethods[m.Name()] {
						report(path, name+"."+m.Name(), m)
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}
