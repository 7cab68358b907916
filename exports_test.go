package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the exported internal/ identifiers that may lack a
// reader outside their package and cmd/paperbench, each with its reason.
// An entry that names nothing, or that has a reader after all, fails the
// test, so the list stays exactly the exceptions.
var exportAllowlist = map[string]string{
	// Oracles: reference implementations the product's tests compare
	// against, and the paper's baseline paperbench prints.
	"rgf.DenseReference": "oracle: the dense inversion the RGF recursion's tests check against",
	"decomp.RunOMEN":     "oracle: the paper's momentum×energy split, the baseline of the comm table",
	"decomp.RunDaCe":     "oracle: the stand-alone DaCe SSE exchange the distributed loop's traffic is pinned to",
	// The Fig. 10 roofline and the two Table 11 efficiencies it reads:
	// ROADMAP item 2 reads it as the per-run roofline denominator.
	"model.Roofline":      "ROADMAP item 2 reads it as the per-run roofline denominator",
	"model.RooflinePoint": "Roofline's result type",
	"model.EffRGF":        "read by Roofline and by paperbench's Table 11 projection",
	"model.EffSSE":        "read by Roofline and by paperbench's Table 11 projection",
	// Typed failures callers match with errors.Is/As.
	"bc.ErrNoConvergence": "error contract: dist's tests match a rank's boundary failure with errors.Is",
	"negf.ErrNonFinite":   "error contract: dist's and qt's tests match a non-finite current with errors.As",
	// Shared test support that tests in several packages import.
	"device.MustBuild": "shared test support: the device constructor tests across the module call",
	"linalg.MaxDiff":   "shared test support: the elementwise comparison tests across the module make",
	"linalg.Eye":       "shared test support: the identity of bc's and paperbench's tests (Inverse reads it too)",
	"linalg.Hermitize": "shared test support: the Hermitian fixtures of bc's, blocktri's, rgf's and the root ablation tests",
}

// implicitMethods are methods the standard library calls through an
// interface of its own (fmt, errors, net/http).
var implicitMethods = map[string]bool{"String": true, "Error": true, "ServeHTTP": true}

// TestInternalExportsHaveReaders keeps internal/ the code a product run
// executes, at the level of identifiers: every exported function, type,
// constant, variable and method of an internal/ package must be read by
// non-test code outside its own package and outside cmd/paperbench (the
// paper-table driver keeps its paper-only code in its own files). A type
// counts as read when it is named, when one of its fields, methods or
// constants is used, or when a read identifier is spelled with it (see
// spelledWith); a method counts as read when it is called or implements
// an interface method that non-test code calls. The frozen bench/ module
// counts as a reader.
func TestInternalExportsHaveReaders(t *testing.T) {
	l := loadModule(t)

	// Exported identifiers of internal/, keyed by their object; methods and
	// fields map to the type that owns them.
	exported := map[types.Object]string{}
	owner := map[types.Object]types.Object{}
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			obj := p.types.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			short := p.types.Name() + "." + name
			exported[obj] = short
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					exported[m] = short + "." + m.Name()
					owner[m] = obj
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					owner[st.Field(i)] = obj
				}
			}
		}
	}

	read := map[types.Object]bool{}
	calledIface := map[string][]*types.Interface{}
	for path, p := range l.pkgs {
		if path == paperbench {
			continue
		}
		for _, obj := range p.info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			obj = origin(obj)
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
				if it, ok := fn.Signature().Recv().Type().Underlying().(*types.Interface); ok {
					calledIface[fn.Name()] = append(calledIface[fn.Name()], it)
				}
			}
			if obj.Pkg() == p.types {
				continue
			}
			read[obj] = true
			if o := owner[obj]; o != nil {
				read[o] = true
			}
		}
	}

	spelledWith(read, exported)

	var missing []string
	for obj, name := range exported {
		if read[obj] {
			continue
		}
		if m, ok := obj.(*types.Func); ok && m.Signature().Recv() != nil &&
			(implicitMethods[m.Name()] || dispatched(m, calledIface[m.Name()])) {
			continue
		}
		if _, ok := exportAllowlist[name]; ok {
			continue
		}
		missing = append(missing, name+" ("+l.fset.Position(obj.Pos()).String()+")")
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s: no reader outside its package and cmd/paperbench; delete it, unexport it or move it to its one reader", m)
	}
	byName := map[string]types.Object{}
	for obj, name := range exported {
		byName[name] = obj
	}
	for name := range exportAllowlist {
		switch obj, ok := byName[name]; {
		case !ok:
			t.Errorf("allowlist entry %s names no exported identifier; remove it", name)
		case read[obj]:
			t.Errorf("allowlist entry %s has a reader; remove it", name)
		}
	}
}

// spelledWith grows read to a fixed point over the types a read identifier
// is spelled with: a type in the signature of a read function, in an
// exported field or the underlying type of a read type, or the type of a
// read constant or variable is part of an API some reader uses, and the
// constants of a read type are read with it (an enum is read as a whole).
func spelledWith(read map[types.Object]bool, exported map[types.Object]string) {
	var visit func(t types.Type, seen map[types.Type]bool)
	mark := func(obj types.Object) {
		if _, ok := exported[obj]; ok {
			read[obj] = true
		}
	}
	visit = func(t types.Type, seen map[types.Type]bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			mark(t.Origin().Obj())
			for i := range t.TypeArgs().Len() {
				visit(t.TypeArgs().At(i), seen)
			}
		case *types.Alias:
			mark(t.Obj())
			visit(types.Unalias(t), seen)
		case *types.Pointer:
			visit(t.Elem(), seen)
		case *types.Slice:
			visit(t.Elem(), seen)
		case *types.Array:
			visit(t.Elem(), seen)
		case *types.Map:
			visit(t.Key(), seen)
			visit(t.Elem(), seen)
		case *types.Chan:
			visit(t.Elem(), seen)
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := range tup.Len() {
					visit(tup.At(i).Type(), seen)
				}
			}
		case *types.Struct:
			for i := range t.NumFields() {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					visit(f.Type(), seen)
				}
			}
		case *types.Interface:
			for i := range t.NumMethods() {
				visit(t.Method(i).Type(), seen)
			}
		}
	}
	for n := -1; n != len(read); {
		n = len(read)
		for obj := range read {
			if _, ok := exported[obj]; !ok {
				continue
			}
			seen := map[types.Type]bool{}
			if tn, ok := obj.(*types.TypeName); ok {
				visit(tn.Type().Underlying(), seen)
			} else {
				visit(obj.Type(), seen)
			}
		}
		for obj := range exported {
			if c, ok := obj.(*types.Const); ok {
				if named, ok := c.Type().(*types.Named); ok && read[named.Obj()] {
					mark(c)
				}
			}
		}
	}
}

// dispatched reports whether m's receiver type implements one of the
// interfaces whose method of m's name non-test code calls.
func dispatched(m *types.Func, called []*types.Interface) bool {
	recv := m.Signature().Recv().Type()
	for _, it := range called {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// paperbench is the paper-table driver: loaded for the design guards, but
// no reader of an internal/ export.
const paperbench = "repro/cmd/paperbench"

// module is every package of this module and of bench/, type-checked once
// for all the tests of this package that read the source.
var module struct {
	once sync.Once
	l    *srcLoader
	err  error
}

func loadModule(t *testing.T) *srcLoader {
	t.Helper()
	module.once.Do(func() {
		l := &srcLoader{
			fset: token.NewFileSet(),
			pkgs: map[string]*loadedPkg{},
			std:  importer.ForCompiler(token.NewFileSet(), "source", nil),
		}
		module.l, module.err = l, filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := l.load(importPathOf(path)); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			return nil
		})
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.l
}

type loadedPkg struct {
	types   *types.Package
	info    *types.Info
	files   []*ast.File // the type-checked files: non-test, for the host
	imports []string    // what go/build lists for the host
}

// srcLoader type-checks this module's packages (and the bench/ module,
// which imports them) from their non-test sources for the host's
// GOOS/GOARCH; standard-library imports come from source too.
type srcLoader struct {
	fset *token.FileSet
	pkgs map[string]*loadedPkg
	std  types.Importer
}

func importPathOf(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

func (l *srcLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *srcLoader) load(path string) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := "."
	if path != "repro" {
		dir = filepath.FromSlash(strings.TrimPrefix(path, "repro/"))
	}
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok || err == nil && len(bp.GoFiles) == 0 {
		return &loadedPkg{types: types.NewPackage(path, ""), info: &types.Info{}}, nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l, FakeImportC: true}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{types: tp, info: info, files: files, imports: bp.Imports}
	l.pkgs[path] = p
	return p, nil
}
