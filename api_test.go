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

// reachAllowList names the declarations of internal/ that stay without a
// non-test reader, each with the test that needs it and why a seam in its
// package's export_test.go cannot serve.
var reachAllowList = map[string]string{
	"internal/discovery.LeaseTable.Expiry": "cross-package test seam: TestDeclinedTopicsAreNoOps (upnp, jini, frodo) " +
		"digests each lease's expiry; discovery's export_test.go is not compiled into their tests",
	"internal/frodo.Node.Config": "cross-package test seam: TestRunHonoursHardening (experiment) reads each built " +
		"node's config; frodo's export_test.go is not compiled into experiment's tests",
	"internal/frodo.NodeOf": "cross-package test seam: TestScopedFanoutCatchesWrongDeclarations (netsim) and TestWorkspace" +
		"ReleasesPreviousScenario (experiment) find FRODO devices; frodo's export_test.go is not in their tests",
	"internal/netsim.Node.Endpoint": "cross-package test seam: TestDeclinedTopicsAreNoOps (upnp, jini) and the NodeOf " +
		"callers read a slot's endpoint; netsim's export_test.go is not compiled into their tests",
	"internal/netsim.Network.Members": "cross-package test seam: TestTopicDeclarations (jini) counts the discovery " +
		"group; netsim's export_test.go is not compiled into jini's tests",
	"internal/wire.ServiceDescription.Equal": "reference that tests compare against: TestSDEqual, TestSDCloneIsDeep, " +
		"TestQuickCloneEqual and FuzzSnapshotMutate (discovery); wire's export_test.go is not in their tests",
	"internal/netsim.Message.Topic": "check value a test's assertion reads: TestScopedFanoutMatchesEveryoneListening's " +
		"reference fan-out (netsim/export_test.go) reads each frame's topic; a field cannot move to a test file",
	"internal/experiment.RunSpec.Shards": "benchmark/scale.go writes it and TestRunIgnoresShards pins that runs ignore " +
		"it; a field cannot move to a test file, and it goes with ROADMAP item 7 in a change to the benchmark",
}

// stdlibMethods are methods that the standard library calls through its
// own interfaces (fmt, errors, encoding/json, net/http, flag, io), so
// their callers are outside the module.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Set": true, "Read": true,
}

// TestEveryDeclarationIsReached fails on a declaration in internal/ that
// no non-test code references, or a struct field that no non-test code
// reads (DESIGN.md, "Reachability").
func TestEveryDeclarationIsReached(t *testing.T) {
	if raceBuild {
		t.Skip("the gate reads source; the race detector adds nothing but time")
	}
	got, err := unreached(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if _, ok := reachAllowList[name]; !ok {
			t.Errorf("%s: nothing but tests reaches it; delete it, move it into a test file, or stop writing it", name)
		}
	}
	for name := range reachAllowList {
		if !slices.Contains(got, name) {
			t.Errorf("allow-list entry %s is reached now (or is gone); drop the entry", name)
		}
	}
}

func TestUnreachedFixture(t *testing.T) {
	got, err := unreached("testdata/apicheck")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.OtherTestOnly", "internal/lib.OwnTestOnly", "internal/lib.Record.testRead", "internal/lib.Record.written",
		"internal/lib.Shape.Unused", "internal/lib.Unused", "internal/lib.XTestOnly", "internal/lib.helper",
	}
	if !slices.Equal(got, want) {
		t.Errorf("unreached(fixture) = %q, want %q", got, want)
	}
}

// unreached type-checks the non-test files of the module rooted at root
// and returns, sorted, what only tests could reach in its internal/
// packages: a package-level name or a method that nothing references
// ("internal/pkg.Name", "internal/pkg.Type.Method"), and a struct field
// that nothing reads ("internal/pkg.Type.field"). A plain `x.f = v` and a
// composite-literal key write a field; any other reference reads it.
// Exempt are methods named like an interface method referenced anywhere
// or one the standard library calls (stdlibMethods), a noCopy marker's
// Lock and Unlock (go vet calls them), tagged fields (encoding/json
// reads them), and every field of a struct compared whole (==, != or a
// map key).
func unreached(root string) ([]string, error) {
	modFile, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(modFile)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	fset := token.NewFileSet()
	c := &reachChecker{
		fset:    fset,
		module:  string(m[1]),
		pkgs:    map[string][]*ast.File{},
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{}},
		read: map[token.Pos]bool{}, viaIfc: map[string]bool{},
	}
	if err := c.load(root); err != nil {
		return nil, err
	}
	for path := range c.pkgs {
		if _, err := c.Import(path); err != nil {
			return nil, err
		}
	}
	c.collect()
	return c.unreached(), nil
}

type reachChecker struct {
	fset    *token.FileSet
	module  string
	pkgs    map[string][]*ast.File // each package's non-test files
	checked map[string]*types.Package
	std     types.Importer
	info    *types.Info        // of every module package
	read    map[token.Pos]bool // declarations with a reference that reads them
	viaIfc  map[string]bool    // names of interface methods referenced
}

// load parses the non-test files of every package of the module,
// skipping what the go command skips: testdata, and directories starting
// with "." or "_".
func (c *reachChecker) load(root string) error {
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := strings.TrimSuffix(c.module+"/"+filepath.ToSlash(rel), "/.")
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		c.pkgs[path] = files
		return nil
	})
}

// Import type-checks module packages here, once each; everything else is
// the standard library.
func (c *reachChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	files, ok := c.pkgs[path]
	if !ok {
		return c.std.Import(path)
	}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.checked[path] = pkg
	return pkg, nil
}

// collect marks what the checked code reads. Declarations are keyed by
// position, so a method or field of an instantiated generic type resolves
// to its origin's key.
func (c *reachChecker) collect() {
	writes := map[*ast.Ident]bool{}
	for _, files := range c.pkgs {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN {
						for _, lhs := range n.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								writes[sel.Sel] = true
							}
						}
					}
				case *ast.KeyValueExpr: // a composite literal's element
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						c.readAll(c.info.TypeOf(n.X))
					}
				case *ast.MapType:
					c.readAll(c.info.TypeOf(n.Key))
				}
				return true
			})
		}
	}
	for id, obj := range c.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && writes[id] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				c.viaIfc[fn.Name()] = true
			}
		}
		c.read[obj.Pos()] = true
	}
	// A promoted field or method reads each embedded field on its path.
	for _, sel := range c.info.Selections {
		t := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			s, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			f := s.Field(i)
			c.read[f.Pos()] = true
			t = f.Type()
		}
	}
}

// readAll marks every field of a struct compared as a whole as read.
func (c *reachChecker) readAll(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for f := range u.Fields() {
			c.read[f.Pos()] = true
			c.readAll(f.Type())
		}
	case *types.Array:
		c.readAll(u.Elem())
	}
}

// unreached lists the declarations of internal/ packages that nothing
// outside the tests reaches.
func (c *reachChecker) unreached() []string {
	var out []string
	report := func(path, name string, obj types.Object) {
		if obj.Name() != "_" && !c.read[obj.Pos()] {
			out = append(out, strings.TrimPrefix(path, c.module+"/")+"."+name)
		}
	}
	for path := range c.pkgs {
		if !strings.HasPrefix(path, c.module+"/internal/") {
			continue
		}
		scope := c.checked[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(path, name, obj)
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for m := range named.Methods() {
				if !c.viaIfc[m.Name()] && !stdlibMethods[m.Name()] && name != "noCopy" {
					report(path, name+"."+m.Name(), m)
				}
			}
		}
		for _, f := range c.pkgs[path] {
			owner := "" // the declaration a struct's fields are named by
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					owner = n.Name.Name
				case *ast.TypeSpec:
					owner = n.Name.Name
				case *ast.StructType:
					s := c.info.TypeOf(n).(*types.Struct)
					for i := range s.NumFields() {
						if s.Tag(i) == "" {
							report(path, owner+"."+s.Field(i).Name(), s.Field(i))
						}
					}
				}
				return true
			})
		}
	}
	slices.Sort(out)
	return out
}
