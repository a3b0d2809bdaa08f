package predtop

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Metric names always start with predtop_ and never end with an underscore,
// so the source pattern skips the bare prefix strings the tools use to
// classify scraped series, and the doc pattern skips the prose mention of
// the `predtop_` prefix itself. A doc row is "| `family` | kind | meaning |
// `reader/file` … |"; constDecl finds the Go constants bound to a family, the
// name a reader in Go usually knows it by.
var (
	srcMetric = regexp.MustCompile(`"(predtop_[a-z0-9_]*[a-z0-9])"`)
	docMetric = regexp.MustCompile("`(predtop_[a-z0-9_]*[a-z0-9])`")
	docRow    = regexp.MustCompile("(?m)^\\| `(predtop_[a-z0-9_]*[a-z0-9])` \\|.* \\| `([^`]+)`[^|]*\\|$")
	constDecl = regexp.MustCompile(`(\w+)\s*=\s*"(predtop_[a-z0-9_]*[a-z0-9])"`)

	// A JSONL record type is the "event" value of an emitted record: a map
	// key, a named struct field, or the first positional field of the
	// anonymous record structs the tools emit. A route is a pattern handed to
	// the debug mux, or one of the daemon's handlers: its instrument wrapper
	// or a plain handler func (/metrics). Their doc row is
	// "| `name` | `emitter/file`, … | `reader/file` … |".
	srcEvent     = regexp.MustCompile(`(?:"event":\s*|\bEvent:\s*|\}\{)"([a-z_]+)"`)
	srcRoute     = regexp.MustCompile(`(?:HandleFunc\(|^\s*)"(/[a-z/]+)"(?:,|:\s+(?:s\.instrument\(|http\.HandlerFunc\())`)
	docRecordRow = regexp.MustCompile("(?m)^\\| `([a-z_]+|/[a-z/]+)` \\| ([^|]*) \\| `([^`]+)`[^|]*\\|$")
	docPath      = regexp.MustCompile("`([a-z][a-z0-9_./-]*\\.go)`")
)

// TestMetricsDocSync pins docs/METRICS.md to the source of truth: every
// predtop_* metric name declared as a string literal in non-test Go files
// must appear (backticked) in the doc, and every name the doc lists must
// still exist in source. A metric added, renamed, or removed without
// touching the reference page fails here with the offending names.
//
// It also keeps the consumer audit permanent: each family's row names, in its
// last column, a file that reads it — a test, a script, the replay scrape,
// bench/ — and that file must exist, must not be a file emitting the family,
// and must mention it, by name or by a Go constant bound to the name. A
// family nobody reads has no row to write and is deleted instead.
//
// The page's "JSONL records and endpoints" table is held to the same rules:
// every record type and route in non-test source has a row and the reverse,
// the row's emitters hold it, and its reader exists, is not an emitter and
// mentions it.
func TestMetricsDocSync(t *testing.T) {
	const root = "."
	inSource := map[string]map[string]bool{} // family -> files holding the literal
	consts := map[string][]string{}          // family -> constants bound to it
	records := map[string]map[string]bool{}  // record type or route -> files emitting it
	emit := func(name, file string) {
		if records[name] == nil {
			records[name] = map[string]bool{}
		}
		records[name][file] = true
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "runs", "results", "bench", ".bench_build": // bench/ only reads
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, m := range srcMetric.FindAllSubmatch(b, -1) {
			if inSource[string(m[1])] == nil {
				inSource[string(m[1])] = map[string]bool{}
			}
			inSource[string(m[1])][filepath.ToSlash(rel)] = true
		}
		for _, m := range constDecl.FindAllSubmatch(b, -1) {
			consts[string(m[2])] = append(consts[string(m[2])], string(m[1]))
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//") {
				continue // a comment quoting a record is not an emitter
			}
			for _, m := range srcEvent.FindAllStringSubmatch(line, -1) {
				emit(m[1], filepath.ToSlash(rel))
			}
			for _, m := range srcRoute.FindAllStringSubmatch(line, -1) {
				route := m[1]
				if strings.HasPrefix(route, "/debug/pprof/") {
					route = "/debug/pprof/" // the stdlib's pages share one row
				}
				emit(route, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inSource) == 0 {
		t.Fatal("no predtop_* metric literals found in source; is the walk rooted correctly?")
	}

	doc, err := os.ReadFile(filepath.Join(root, "docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	inDoc := map[string]bool{}
	for _, m := range docMetric.FindAllSubmatch(doc, -1) {
		inDoc[string(m[1])] = true
	}

	var undocumented, stale []string
	for name := range inSource {
		if !inDoc[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range inDoc {
		if inSource[name] == nil {
			stale = append(stale, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(stale)
	if len(undocumented) > 0 {
		t.Errorf("metrics missing from docs/METRICS.md:\n  %s", strings.Join(undocumented, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("docs/METRICS.md lists metrics no longer in source:\n  %s", strings.Join(stale, "\n  "))
	}

	readers := map[string]string{}
	for _, m := range docRow.FindAllSubmatch(doc, -1) {
		readers[string(m[1])] = string(m[2])
	}
	for name, emitters := range inSource {
		reader, ok := readers[name]
		if !ok {
			t.Errorf("%s: no table row naming a reader in its last column", name)
			continue
		}
		if emitters[reader] {
			t.Errorf("%s: its reader %s is a file that emits it", name, reader)
		}
		b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(reader)))
		if err != nil {
			t.Errorf("%s: reader: %v", name, err)
			continue
		}
		mentioned := false
		for _, word := range append(consts[name], name) {
			mentioned = mentioned || regexp.MustCompile(`\b`+word+`\b`).Match(b)
		}
		if !mentioned {
			t.Errorf("%s: its reader %s mentions neither the name nor %v", name, reader, consts[name])
		}
	}

	listed := map[string]bool{}
	for _, m := range docRecordRow.FindAllSubmatch(doc, -1) {
		name, reader := string(m[1]), string(m[3])
		listed[name] = true
		emitters := records[name]
		if emitters == nil {
			t.Errorf("docs/METRICS.md lists record or route %s, which no source file emits", name)
			continue
		}
		named := docPath.FindAllSubmatch(m[2], -1)
		if len(named) == 0 {
			t.Errorf("%s: its row names no emitter file", name)
		}
		for _, e := range named {
			if !emitters[string(e[1])] {
				t.Errorf("%s: listed emitter %s does not emit it", name, e[1])
			}
		}
		if emitters[reader] {
			t.Errorf("%s: its reader %s is a file that emits it", name, reader)
		}
		b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(reader)))
		if err != nil {
			t.Errorf("%s: reader: %v", name, err)
			continue
		}
		end := `($|[^a-z_])`
		if strings.HasSuffix(name, "/") {
			end = "" // a route prefix is mentioned by any page under it
		}
		if !regexp.MustCompile(`(^|[^a-z_/])` + regexp.QuoteMeta(name) + end).Match(b) {
			t.Errorf("%s: its reader %s does not mention it", name, reader)
		}
	}
	for name, emitters := range records {
		if !listed[name] {
			t.Errorf("record or route %s (emitted by %v) has no row in docs/METRICS.md; list it with its reader, or delete it if it has none", name, emitters)
		}
	}
}

// TestServeImportedOnlyByFacade keeps the metrics registry, the exposition and
// the SLO tracker the daemon's: outside internal/serve itself, only the
// facade (predtop.go) and the frozen benchmark (bench/) import
// predtop/internal/serve, so no batch package or tool can grow a registry
// again.
func TestServeImportedOnlyByFacade(t *testing.T) {
	const pkg = "predtop/internal/serve"
	fset := token.NewFileSet()
	seen := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build" || path == filepath.Join("internal", "serve")):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		path = filepath.ToSlash(path)
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p != pkg {
				continue
			}
			seen++
			if path != "predtop.go" && !strings.HasPrefix(path, "bench/") {
				t.Errorf("%s imports %s; only predtop.go and bench/ may", path, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("no file imports internal/serve; is the walk rooted correctly?")
	}
}
