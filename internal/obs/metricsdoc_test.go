package obs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
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
func TestMetricsDocSync(t *testing.T) {
	root := filepath.Join("..", "..")
	inSource := map[string]map[string]bool{} // family -> files holding the literal
	consts := map[string][]string{}          // family -> constants bound to it
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
}
