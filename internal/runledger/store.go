package runledger

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"predtop/internal/predictor"
)

// baselineFile is the store-relative pin written by SetBaseline: the file
// name of the manifest regressions are gated against.
const baselineFile = "BASELINE"

// Store is a content-addressed manifest directory (conventionally "runs/").
// A run is stored as <run-id>.json; reruns with an identical canonical
// section — same content address — take .1, .2, … suffixes instead of
// overwriting, so a baseline captured before a change always survives the
// "after" run.
//
// Files are written through predictor.AtomicWrite (a temporary file renamed
// into place), so a run killed mid-write leaves at most a stray
// <id>.json.tmp* that List never reads, not a torn manifest it cannot parse.
//
// A nil *Store is fully inert: Put and friends succeed as no-ops, so tools
// thread one pointer and pay nothing when the ledger is off.
type Store struct {
	dir string
}

// Open returns a store rooted at dir ("" returns nil: ledger off). The
// directory is created lazily on first Put.
func Open(dir string) *Store {
	if dir == "" {
		return nil
	}
	return &Store{dir: dir}
}

// Dir returns the store directory ("" on nil).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Entry is one stored run, as listed: its content address, file path, and
// the identity fields list/resolve need without loading full manifests.
type Entry struct {
	ID          string  `json:"id"`
	Path        string  `json:"path"`
	Tool        string  `json:"tool"`
	Seed        int64   `json:"seed"`
	StartedUnix int64   `json:"started_unix"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Put stores the manifest and returns its entry. The zero entry and nil
// error mean the store is nil (ledger off).
func (s *Store) Put(m *Manifest) (Entry, error) {
	if s == nil || m == nil {
		return Entry{}, nil
	}
	id, err := m.RunID()
	if err != nil {
		return Entry{}, err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return Entry{}, err
	}
	path := filepath.Join(s.dir, id+".json")
	for n := 1; ; n++ {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		path = filepath.Join(s.dir, fmt.Sprintf("%s.%d.json", id, n))
	}
	err = predictor.AtomicWrite(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err != nil {
		return Entry{}, err
	}
	return Entry{
		ID: id, Path: path, Tool: m.Canonical.Tool, Seed: m.Canonical.Seed,
		StartedUnix: m.Session.StartedUnix, WallSeconds: m.Session.WallSeconds,
	}, nil
}

// Load reads one manifest file.
func Load(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("runledger: parse %s: %w", path, err)
	}
	return &m, nil
}

// List returns every stored run, oldest first (start time, then file name —
// the .N rerun suffixes sort after their originals). Nil store lists empty.
func (s *Store) List() ([]Entry, error) {
	if s == nil {
		return nil, nil
	}
	names, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, path := range names {
		m, err := Load(path)
		if err != nil {
			return nil, err
		}
		id, err := m.RunID()
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{
			ID: id, Path: path, Tool: m.Canonical.Tool, Seed: m.Canonical.Seed,
			StartedUnix: m.Session.StartedUnix, WallSeconds: m.Session.WallSeconds,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartedUnix != out[j].StartedUnix {
			return out[i].StartedUnix < out[j].StartedUnix
		}
		if out[i].ID != out[j].ID {
			return out[i].Path < out[j].Path
		}
		// Same id: the unsuffixed original first, then .1, .2, … — length
		// before lexicographic so .2 sorts before .10.
		if len(out[i].Path) != len(out[j].Path) {
			return len(out[i].Path) < len(out[j].Path)
		}
		return out[i].Path < out[j].Path
	})
	return out, nil
}

// Resolve turns a run reference into a manifest file path. Accepted forms:
//
//   - "latest" (or ""): the newest stored run
//   - "baseline": the pinned baseline (see SetBaseline)
//   - an existing file path (used verbatim)
//   - a run id or unique id prefix, optionally with a ".N" rerun suffix
func (s *Store) Resolve(ref string) (string, error) {
	if s == nil {
		return "", fmt.Errorf("runledger: no store open")
	}
	switch ref {
	case "", "latest":
		entries, err := s.List()
		if err != nil {
			return "", err
		}
		if len(entries) == 0 {
			return "", fmt.Errorf("runledger: no runs recorded in %s", s.dir)
		}
		return entries[len(entries)-1].Path, nil
	case "baseline":
		return s.Baseline()
	}
	if _, err := os.Stat(ref); err == nil {
		return ref, nil
	}
	// An id (or prefix) names files <id>.json and <id>.N.json; prefer the
	// exact file, else require a unique prefix match.
	if p := filepath.Join(s.dir, ref+".json"); fileExists(p) {
		return p, nil
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, ref+"*.json"))
	if err != nil {
		return "", err
	}
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("runledger: no run matches %q in %s", ref, s.dir)
	case 1:
		return matches[0], nil
	default:
		sort.Strings(matches)
		return "", fmt.Errorf("runledger: %q is ambiguous (%s)", ref, strings.Join(bases(matches), ", "))
	}
}

// SetBaseline resolves ref and pins it as the store's baseline, returning
// the pinned path.
func (s *Store) SetBaseline(ref string) (string, error) {
	path, err := s.Resolve(ref)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return "", err
	}
	// Pin the file name, not the absolute path, so the store directory can
	// move (or live inside a temp dir in tests) without dangling.
	name := filepath.Base(path)
	err = predictor.AtomicWrite(filepath.Join(s.dir, baselineFile), func(w io.Writer) error {
		_, err := io.WriteString(w, name+"\n")
		return err
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// Baseline returns the pinned baseline's path.
func (s *Store) Baseline() (string, error) {
	if s == nil {
		return "", fmt.Errorf("runledger: no store open")
	}
	b, err := os.ReadFile(filepath.Join(s.dir, baselineFile))
	if err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("runledger: no baseline pinned in %s (use the baseline subcommand)", s.dir)
		}
		return "", err
	}
	name := strings.TrimSpace(string(b))
	path := filepath.Join(s.dir, name)
	if !fileExists(path) {
		return "", fmt.Errorf("runledger: pinned baseline %s is gone", path)
	}
	return path, nil
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

func bases(paths []string) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = filepath.Base(p)
	}
	return out
}
