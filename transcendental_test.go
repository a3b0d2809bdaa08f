package predtop

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mathPowAllowed lists the math.Pow calls that may stay, keyed by
// "file: call", each with the reason its bits do not depend on the host.
var mathPowAllowed = map[string]string{
	"internal/optim/optim.go: math.Pow(a.Beta1, float64(a.step))": "Adam's bias correction: an integer exponent, which math.Pow raises by squaring without Exp",
	"internal/optim/optim.go: math.Pow(a.Beta2, float64(a.step))": "Adam's bias correction: an integer exponent, which math.Pow raises by squaring without Exp",
}

// TestNoHostDependentExp fails on any use of math.Exp, and of math.Pow off
// the allow-list, in non-test Go. math.Exp is assembly on amd64 whose last
// bit depends on the CPU's FMA and on GODEBUG, and a fractional math.Pow
// calls it; the golden literals hold on every host only because every exp
// and fractional pow on their path is internal/xmath's. The search is
// syntactic: any math.Exp or math.Pow selector, called or not, in a file
// that imports "math".
func TestNoHostDependentExp(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	used := map[string]bool{}
	visit := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "math" {
				local = "math"
				if im.Name != nil {
					local = im.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		text := func(n ast.Node) string {
			return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
		}
		calls := map[*ast.SelectorExpr]*ast.CallExpr{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					calls[sel] = n
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); !ok || x.Name != local || (n.Sel.Name != "Exp" && n.Sel.Name != "Pow") {
					return true
				}
				var use ast.Node = n
				if c := calls[n]; c != nil {
					use = c
				}
				key := filepath.ToSlash(path) + ": " + text(use)
				if n.Sel.Name == "Pow" && mathPowAllowed[key] != "" {
					used[key] = true
					return true
				}
				found = append(found, fset.Position(n.Pos()).String()+": "+text(use))
			}
			return true
		})
	}
	walkSources(t, visit, "internal", "cmd", "examples", "bench")
	visit("predtop.go")
	if len(found) > 0 {
		t.Errorf("math.Exp, or math.Pow off the allow-list, in non-test code (use internal/xmath, or allow-list an integer exponent with a reason):\n  %s",
			strings.Join(found, "\n  "))
	}
	for key := range mathPowAllowed {
		if !used[key] {
			t.Errorf("allow-list entry %q is stale: the call no longer exists", key)
		}
	}
}
