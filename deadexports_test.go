package predtop

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportsAllowed lists the exported funcs and methods under internal/
// that may live without a non-test caller, each with the reason it stays.
// Keys are "pkg.Func" or "pkg.Type.Method" (pkg = directory under internal/).
var deadExportsAllowed = map[string]string{
	// Test helpers that other packages' tests lean on.
	"tensor.AllClose":      "tolerance comparison in the tests of tensor, ag, nn, optim",
	"tensor.Randn":         "random fixtures across the numeric stack's tests",
	"tensor.FromSlice":     "literal fixtures in the tests of tensor and nn",
	"tensor.Tensor.MaxAbs": "\"nothing was touched\" checks in the tests of tensor, ag, graphnn",
	"ag.GradCheck":         "finite-difference oracle behind every gradient test",
	"ag.CollectGrads":      "GradCheck's analytic side in the tests of ag and nn",
	"ag.Context.MeanAll":   "scalar loss of the gradient-check fixtures in ag, nn, optim",
	// Readers and switches whose callers are tests in other packages.
	"tensor.SIMDAvailable": "gates the SIMD-vs-scalar rows of the bitwise tests in ag, graphnn, predictor",
	"tensor.SIMDEnabled":   "read by the same tests to restore the kernel switch",
	"tensor.SetSIMD":       "the kernel switch itself: the nosimd build tag for a process, this for one test",
	// Paper artifacts whose caller is a root benchmark or test.
	"experiments.Fig2Result.Spread": "Fig 2's headline max/min, the metric BenchmarkFig2PlanVariation reports",
	// Test helpers whose name another type's method shares.
	"ag.Context.Param":      "leaf node of a raw parameter in the gradient tests of ag, nn, optim",
	"tensor.Neighbours.Row": "adjacency reads in the tests of ag, models, predictor",
}

// TestNoDeadExports fails when an exported func or method under internal/ has
// no reference in non-test code outside its own declaration, and likewise
// for every func declared without a body (an assembly routine), exported or
// not. Callers are internal/, cmd/, examples/, predtop.go and the frozen
// bench/*.go, type-checked together with go/types as the amd64 build sees
// them (the assembly exists only there), so a reference is an identifier the
// type checker resolves to the declaration: x.Get counts for the Get of x's
// type and for no other Get. A declaration is never a reference, so a Go
// stub of the same name for other architectures (simd_other.go) keeps no
// routine alive. A method is also referenced when code calls an interface
// method of its name that its type implements: a call through an interface
// reaches every implementation. fmt.Stringer, error and json.Marshaler count
// as called, since fmt, errors and encoding/json call them on the values
// they are handed.
func TestNoDeadExports(t *testing.T) {
	const module = "predtop"
	ctxt := build.Default
	ctxt.GOARCH = "amd64"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	addDir := func(dir, path string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := ctxt.MatchFile(dir, name); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files[path] = append(files[path], f)
		}
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				addDir(dir, module+"/"+filepath.ToSlash(dir))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	addDir(".", module)
	addDir("bench", module+"/bench")

	// Type-check every package from source, each once, its module imports
	// first; the standard library comes from compiled export data.
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := importer.Default()
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if files[path] == nil {
			return std.Import(path)
		}
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		return pkg, nil
	}
	var paths []string
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			t.Fatal(err)
		}
	}

	// Declarations under internal/, keyed "pkg.Func" or "pkg.Type.Method"
	// (pkg = directory under internal/).
	type decl struct {
		key, pos string
		obj      *types.Func
	}
	var funcs, methods, asm []decl
	for _, path := range paths {
		pkg, ok := strings.CutPrefix(path, module+"/internal/")
		if !ok {
			continue
		}
		for _, f := range files[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				pos := fset.Position(fd.Pos()).String()
				if fd.Recv == nil {
					d := decl{pkg + "." + fd.Name.Name, pos, info.Defs[fd.Name].(*types.Func)}
					if fd.Body == nil {
						asm = append(asm, d)
					}
					if fd.Name.IsExported() {
						funcs = append(funcs, d)
					}
					continue
				}
				if !fd.Name.IsExported() {
					continue
				}
				m := info.Defs[fd.Name].(*types.Func)
				recv := m.Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				methods = append(methods, decl{pkg + "." + recv.(*types.Named).Obj().Name() + "." + fd.Name.Name, pos, m})
			}
		}
	}

	// References: every identifier the type checker resolved to a func or
	// method, and the interface methods called (or taken as values), among
	// them those the standard library calls on the values fmt, errors and
	// encoding/json are handed.
	used := map[*types.Func]bool{}
	var ifaceCalls []*types.Func
	for _, name := range []string{"fmt.Stringer", "encoding/json.Marshaler", "error"} {
		obj := types.Universe.Lookup(name)
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			pkg, err := std.Import(name[:dot])
			if err != nil {
				t.Fatal(err)
			}
			obj = pkg.Scope().Lookup(name[dot+1:])
		}
		iface := obj.Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			ifaceCalls = append(ifaceCalls, iface.Method(i))
		}
	}
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceCalls = append(ifaceCalls, fn)
		}
	}
	reached := func(m *types.Func) bool {
		if used[m] {
			return true
		}
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, f := range ifaceCalls {
			iface := f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if f.Name() == m.Name() && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}

	var dead []string
	allowed := map[string]bool{}
	check := func(d decl, referenced bool) {
		switch {
		case referenced:
		case deadExportsAllowed[d.key] != "":
			allowed[d.key] = true
		default:
			dead = append(dead, d.pos+": "+d.key)
		}
	}
	for _, d := range funcs {
		check(d, used[d.obj])
	}
	for _, d := range methods {
		check(d, reached(d.obj))
	}
	var deadAsm []string
	for _, d := range asm {
		if !used[d.obj] {
			deadAsm = append(deadAsm, d.pos+": "+d.key)
		}
	}
	sort.Strings(dead)
	sort.Strings(deadAsm)
	if len(funcs) < 100 || len(methods) < 100 || len(asm) < 10 {
		t.Fatalf("found %d funcs, %d methods and %d bodiless funcs under internal/; is the walk rooted correctly?", len(funcs), len(methods), len(asm))
	}
	if len(dead) > 0 {
		t.Errorf("exported under internal/ with no non-test caller (delete, unexport, or allow-list with a reason):\n  %s", strings.Join(dead, "\n  "))
	}
	if len(deadAsm) > 0 {
		t.Errorf("declared without a body under internal/ and no non-test caller (delete the routine, its binding and its stub):\n  %s", strings.Join(deadAsm, "\n  "))
	}
	for key := range deadExportsAllowed {
		if !allowed[key] {
			t.Errorf("allow-list entry %s is stale: it has a caller now, or no longer exists", key)
		}
	}
}

// importerFunc adapts a func to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestFacadeFuncsHaveCallers holds the facade to what its users call: every
// exported func in predtop.go needs a predtop.Name reference in a non-test
// file under cmd/, examples/ or the frozen bench/. Tests in this package do
// not count — a function only its own test calls is surface nobody uses.
// Type aliases and constants are exempt: kept signatures and struct fields
// name them.
func TestFacadeFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "predtop.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]bool{}
	visit := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "predtop" {
				local = "predtop"
				if im.Name != nil {
					local = im.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					refs[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	walkSources(t, visit, "cmd", "examples", "bench")
	var funcs int
	var dead []string
	for _, d := range facade.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !fd.Name.IsExported() {
			continue
		}
		funcs++
		if !refs[fd.Name.Name] {
			dead = append(dead, fset.Position(fd.Pos()).String()+": predtop."+fd.Name.Name)
		}
	}
	if funcs < 10 || len(refs) < 10 {
		t.Fatalf("found %d facade funcs and %d predtop.Name references; is the walk rooted correctly?", funcs, len(refs))
	}
	if len(dead) > 0 {
		t.Errorf("exported from the facade with no caller in cmd/, examples/ or bench/ (delete it, or call it):\n  %s", strings.Join(dead, "\n  "))
	}
}

// walkSources calls visit on every non-test Go file under the roots.
func walkSources(t *testing.T, visit func(path string), roots ...string) {
	t.Helper()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				visit(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
