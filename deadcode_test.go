package pbfs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unreachedAllowlist names the exported identifiers that no non-test
// file in the module references but that stay on purpose, each with its
// reason. Only two kinds belong here: what tests in more than one
// package share, such as a test oracle, which no one package's _test.go
// files can hold (an oracle one package's tests use lives there), and
// serve.Harness. To add an entry, key it as the gate prints it and give
// the reason in one line.
var unreachedAllowlist = map[string]string{
	"repro/internal/spmat.NewRowSplit":    "test oracle: bfs2d's reference 2D distribution and spmat's kernel tests build blocks from triples with it",
	"repro/internal/spvec.SPA.Scatter":    "test oracle: the per-index reference for ScatterRows in spvec, and the CSC product spmat's kernels are checked against",
	"repro/internal/prng.Xoshiro256.Intn": "test input source: tests in a dozen packages draw their seeded random inputs with it",
	"repro/internal/serve.NewHarness":     "fake-clock serving harness; kept until the harness runs the real dispatch path",
	"repro/internal/serve.Harness.Submit": "fake-clock serving harness; kept until the harness runs the real dispatch path",
	"repro/internal/serve.Harness.Pump":   "fake-clock serving harness; kept until the harness runs the real dispatch path",
	"repro/internal/serve.Harness.Flush":  "fake-clock serving harness; kept until the harness runs the real dispatch path",
	"repro/internal/serve.Harness.Close":  "fake-clock serving harness; kept until the harness runs the real dispatch path",
}

// TestNoUnreachedExports is the dead-code gate: every exported function,
// method, type, var and const of an internal package in the module must
// be referenced by a non-test file somewhere in the module (cmd/,
// examples/ and benchmark/ included), or be on unreachedAllowlist. An
// allowlist entry the scan no longer finds fails too, so the list stays
// exact. The root package pbfs is the library's public API, which code
// outside the module calls, so the module alone cannot show one of its
// exports unused; it is not checked.
func TestNoUnreachedExports(t *testing.T) {
	hits, err := unreachedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if _, ok := unreachedAllowlist[h]; !ok {
			t.Errorf("%s: exported, but no non-test file in the module references it; delete it, move it into a _test.go file, or allowlist it with a reason", h)
		}
	}
	for h := range unreachedAllowlist {
		if !slices.Contains(hits, h) {
			t.Errorf("%s: allowlisted, but non-test code references it (or it is gone); remove its allowlist entry", h)
		}
	}
}

// TestUnreachedExportsScan runs the gate's scan over a small module
// written to a temporary directory, whose unreached exports are known.
func TestUnreachedExportsScan(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scan\n\ngo 1.21\n",
		"internal/lib/lib.go": `package lib

import "fmt"

// Used is called from main; Unused only from its own body and tests.
func Used() fmt.Stringer { return Point{} }
func Unused()            { Unused() }

// Point satisfies fmt.Stringer, so String is reached through it.
type Point struct{}

func (Point) String() string { return "p" }
func (Point) Norm() int      { return 0 }

// Shape is named only by its own method.
type Shape int

func (s Shape) Area() Shape { return s }

var Dead = 3

const Live, Idle = 1, 2

type inner struct{}

// Hidden is promoted into Outer, which satisfies Hider through it.
func (inner) Hidden() {}

type Hider interface{ Hidden() }

type Outer struct{ inner }

func use(h Hider) { h.Hidden() }

func Reach() { use(Outer{}); _ = Live }
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestUnused(t *testing.T) { Unused(); _ = Point{}.Norm() }
`,
		"main.go": `package main

import (
	"fmt"

	"scan/internal/lib"
)

func Exported() {}

func main() { fmt.Println(lib.Used()); lib.Reach(); Exported() }
`,
		// A public package's exports are API, not checked.
		"api/api.go": "package api\n\nfunc Public() {}\n",
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := unreachedExports(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"scan/internal/lib.Dead", "scan/internal/lib.Idle", "scan/internal/lib.Point.Norm",
		"scan/internal/lib.Shape", "scan/internal/lib.Shape.Area", "scan/internal/lib.Unused"}
	if !slices.Equal(got, want) {
		t.Errorf("unreached exports:\n got %q\nwant %q", got, want)
	}
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	Dir, ImportPath string
	GoFiles         []string
}

// scannedPackage is one module package type-checked from its non-test
// files, with the spans each of its declarations covers: a use inside
// an object's own declaration (a recursive call, a type's own methods)
// does not keep it alive.
type scannedPackage struct {
	pkg  *types.Package
	info *types.Info
	own  map[types.Object][][2]token.Pos
}

// moduleImporter type-checks module packages from their non-test files
// on first import and hands every other import to the source importer,
// so that every reference to a module object resolves to the one object
// the scan marks.
type moduleImporter struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	listed  map[string]listedPackage
	scanned map[string]*scannedPackage
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	lp, ok := m.listed[path]
	if !ok {
		return m.std.ImportFrom(path, dir, mode)
	}
	if sp := m.scanned[path]; sp != nil {
		return sp.pkg, nil
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	sp := &scannedPackage{own: map[types.Object][][2]token.Pos{}}
	sp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, sp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	sp.pkg = pkg
	sp.recordSpans(files)
	m.scanned[path] = sp
	return pkg, nil
}

// recordSpans notes each package-level declaration's extent, and adds
// each method's extent to its receiver type's spans.
func (sp *scannedPackage) recordSpans(files []*ast.File) {
	add := func(obj types.Object, n ast.Node) {
		if obj != nil {
			sp.own[obj] = append(sp.own[obj], [2]token.Pos{n.Pos(), n.End()})
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := sp.info.Defs[d.Name]
				add(fn, d)
				if d.Recv != nil {
					recv := fn.Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					if named, ok := recv.(*types.Named); ok {
						add(named.Obj(), d)
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(sp.info.Defs[s.Name], s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(sp.info.Defs[name], s)
						}
					}
				}
			}
		}
	}
}

// unreachedExports lists, sorted, the exported functions, methods,
// types, vars and consts of the internal packages of the module rooted
// at dir that no non-test file of the module references. A method also
// counts as referenced when a type of the module that has it (declared
// or promoted) implements an interface naming it, where the interfaces
// are those the module declares or spells and those its imports
// declare, so dynamic calls through sort.Interface, fmt.Stringer or the
// module's own interfaces keep their implementations. Struct fields and
// interface methods are not checked.
func unreachedExports(dir string) ([]string, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list: %w", err)
	}
	listed := map[string]listedPackage{}
	var order []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		listed[lp.ImportPath] = lp
		order = append(order, lp.ImportPath)
	}

	// The source importer type-checks the standard library from GOROOT;
	// without cgo it reads the pure-Go file sets and needs no C compiler.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	fset := token.NewFileSet()
	imp := &moduleImporter{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		listed:  listed,
		scanned: map[string]*scannedPackage{},
	}
	for _, path := range order {
		if _, err := imp.Import(path); err != nil {
			return nil, err
		}
	}

	// Candidates: exported package-level objects and exported methods of
	// the named types of internal packages.
	candidate := map[types.Object]string{}
	var named []*types.Named
	for _, path := range order {
		internal := strings.Contains("/"+path+"/", "/internal/")
		scope := imp.scanned[path].pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if internal && obj.Exported() {
				candidate[obj] = path + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			named = append(named, n)
			for i := 0; internal && i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					candidate[m] = path + "." + name + "." + m.Name()
				}
			}
		}
	}

	live := map[types.Object]bool{}
	mark := func(obj types.Object, at token.Pos) {
		if _, ok := candidate[obj]; !ok || live[obj] {
			return
		}
		for _, span := range imp.scanned[obj.Pkg().Path()].own[obj] {
			if span[0] <= at && at < span[1] {
				return
			}
		}
		live[obj] = true
	}
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for _, path := range order {
		sp := imp.scanned[path]
		for id, obj := range sp.info.Uses {
			mark(origin(obj), id.Pos())
		}
		// A type is reached wherever a value or type expression of it
		// appears, also through an inferred declaration (x := New()).
		for expr, tv := range sp.info.Types {
			for _, n := range namedIn(tv.Type) {
				mark(n.Origin().Obj(), expr.Pos())
			}
			addIface(tv.Type)
		}
		addIfaces(sp.pkg.Scope())
		for _, ip := range sp.pkg.Imports() {
			addIfaces(ip.Scope())
		}
	}
	for _, n := range named {
		if n.TypeParams().Len() > 0 {
			continue
		}
		for it := range ifaces {
			var recv types.Type
			switch {
			case types.Implements(n, it):
				recv = n
			case types.Implements(types.NewPointer(n), it):
				recv = types.NewPointer(n)
			default:
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m, _, _ := types.LookupFieldOrMethod(recv, true, it.Method(i).Pkg(), it.Method(i).Name())
				if m != nil {
					live[origin(m)] = true
				}
			}
		}
	}

	var hits []string
	for obj, name := range candidate {
		if !live[obj] {
			hits = append(hits, name)
		}
	}
	slices.Sort(hits)
	return hits, nil
}

// origin maps an object of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedIn returns the named types t is, or holds as pointer, slice,
// array, map or channel elements.
func namedIn(t types.Type) []*types.Named {
	switch t := t.(type) {
	case *types.Named:
		return []*types.Named{t}
	case *types.Pointer:
		return namedIn(t.Elem())
	case *types.Slice:
		return namedIn(t.Elem())
	case *types.Array:
		return namedIn(t.Elem())
	case *types.Chan:
		return namedIn(t.Elem())
	case *types.Map:
		return append(namedIn(t.Key()), namedIn(t.Elem())...)
	}
	return nil
}
