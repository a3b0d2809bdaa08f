package predtop

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	// Called by the standard library through an interface, never by name.
	"runledger.Manifest.MarshalJSON": "json.Marshaler: how encoding/json writes a manifest",
}

// TestNoDeadExports fails when an exported func or method under internal/ has
// no reference in non-test code outside its own declaration, and likewise
// for every func declared without a body (an assembly routine), exported or
// not; a declaration is never a reference, so a Go stub of the same name
// for other architectures (simd_other.go) keeps no routine alive. The search
// is syntactic (go/parser, no type checker): a func counts as referenced by
// its bare name inside its package or by pkg.Name from a file importing the
// package; a method by any x.Name selector anywhere. That errs towards
// keeping things alive, never towards a false alarm. Callers are internal/,
// cmd/, examples/, predtop.go and the frozen bench/*.go.
func TestNoDeadExports(t *testing.T) {
	const module = "predtop/internal/"
	type decl struct{ key, pos string }
	var funcs, methods, asm []decl
	funcRefs := map[string]bool{}   // "pkg.Name"
	methodRefs := map[string]bool{} // "Name"

	fset := token.NewFileSet()
	visit := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := "" // directory under internal/, "" for callers outside it
		if rest, ok := strings.CutPrefix(filepath.ToSlash(path), "internal/"); ok {
			pkg = filepath.ToSlash(filepath.Dir(rest))
		}
		imports := map[string]string{} // local name -> package under internal/
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			rest, ok := strings.CutPrefix(p, module)
			if !ok {
				continue
			}
			name := rest[strings.LastIndexByte(rest, '/')+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rest
		}
		var declared map[*ast.Ident]bool
		if pkg != "" {
			declared = map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fd.Name] = true
				pos := fset.Position(fd.Pos()).String()
				if fd.Body == nil && fd.Recv == nil {
					asm = append(asm, decl{pkg + "." + fd.Name.Name, pos})
				}
				if !fd.Name.IsExported() {
					continue
				}
				if fd.Recv == nil {
					funcs = append(funcs, decl{pkg + "." + fd.Name.Name, pos})
					continue
				}
				recv := fd.Recv.List[0].Type
				if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				}
				switch g := recv.(type) { // generic receiver
				case *ast.IndexExpr:
					recv = g.X
				case *ast.IndexListExpr:
					recv = g.X
				}
				methods = append(methods, decl{pkg + "." + recv.(*ast.Ident).Name + "." + fd.Name.Name, pos})
			}
		}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcRefs[imports[x.Name]+"."+n.Sel.Name] = true
				}
				ast.Inspect(n.X, walk)
				return false
			case *ast.Ident:
				if pkg != "" && !declared[n] {
					funcRefs[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, walk)
	}

	walkSources(t, visit, "internal", "cmd", "examples")
	visit("predtop.go")
	bench, _ := filepath.Glob("bench/*.go")
	for _, path := range bench {
		visit(path)
	}

	var dead []string
	used := map[string]bool{}
	check := func(d decl, referenced bool) {
		switch {
		case referenced:
		case deadExportsAllowed[d.key] != "":
			used[d.key] = true
		default:
			dead = append(dead, d.pos+": "+d.key)
		}
	}
	for _, d := range funcs {
		check(d, funcRefs[d.key])
	}
	for _, d := range methods {
		check(d, methodRefs[d.key[strings.LastIndexByte(d.key, '.')+1:]])
	}
	var deadAsm []string
	for _, d := range asm {
		if !funcRefs[d.key] {
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
		if !used[key] {
			t.Errorf("allow-list entry %s is stale: it has a caller now, or no longer exists", key)
		}
	}
}

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
