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
// the `predtop_` prefix itself.
var (
	srcMetric = regexp.MustCompile(`"(predtop_[a-z0-9_]*[a-z0-9])"`)
	docMetric = regexp.MustCompile("`(predtop_[a-z0-9_]*[a-z0-9])`")
)

// TestMetricsDocSync pins docs/METRICS.md to the source of truth: every
// predtop_* metric name declared as a string literal in non-test Go files
// must appear (backticked) in the doc, and every name the doc lists must
// still exist in source. A metric added, renamed, or removed without
// touching the reference page fails here with the offending names.
func TestMetricsDocSync(t *testing.T) {
	root := filepath.Join("..", "..")
	inSource := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "runs", "results":
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
		for _, m := range srcMetric.FindAllSubmatch(b, -1) {
			inSource[string(m[1])] = true
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
		if !inSource[name] {
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
}
