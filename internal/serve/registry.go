// Package serve is the predictor-as-a-service layer: a long-running HTTP/JSON
// daemon that keeps a registry of trained predictors resident in memory,
// memoizes (stage graph, model) → latency in a bounded LRU, and runs a miss's
// forward on the handler goroutine that asked, at most GOMAXPROCS at a time
// — so answering a what-if latency query costs a map hit or one B = 1 forward
// instead of a model load per query.
//
// The daemon owns its telemetry: the metrics registry (Metrics, the only one
// in the repository), its Prometheus exposition at GET /metrics, and the
// rolling SLO tracker with its bucket sketch live here, beside the forward
// slots they describe; internal/obs keeps the batch tools' spans, sinks,
// traces and flight recorder, which the daemon also uses. Every channel
// (per-endpoint latency histograms, LRU and queue counters, SLO windows,
// sampled JSONL access records, flight recorder breadcrumbs) is nil-safe and
// observation-only, and every response carries the run's deterministic trace
// id plus a per-request span id.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"predtop/internal/predictor"
)

// ModelExt is the file extension the registry scans for: the gob files
// written by predictor.SaveFile / predtop-train -o.
const ModelExt = ".predtop"

// Metric names exported by the model registry.
const (
	RegistryGenerationMetric = "predtop_serve_registry_generation"
	RegistryModelsMetric     = "predtop_serve_registry_models"
	ReloadsMetric            = "predtop_serve_reloads_total"
)

// Entry is one resident predictor: the registry key (the model file's name
// without extension), its source path, the predictor family it was trained
// as (Tran/GCN/GAT), and the loaded weights.
type Entry struct {
	Key     string
	Path    string
	Family  string
	Trained predictor.Trained
}

// regSnapshot is one immutable generation of the registry. Lookups read the
// whole snapshot through a single atomic pointer, so a concurrent reload is
// always observed as old-or-new, never torn.
type regSnapshot struct {
	gen     uint64
	entries map[string]*Entry
	keys    []string // sorted, for stable /models listings
}

// Registry holds the trained predictors served by the daemon, hot-reloadable
// from its model directory. Load swaps a fully-built immutable snapshot in
// one atomic store and bumps the generation counter; requests in flight keep
// the snapshot they resolved, so a reload never tears a prediction.
type Registry struct {
	dir  string
	snap atomic.Pointer[regSnapshot]

	// loadMu serializes Load calls so two concurrent reloads cannot race the
	// generation bump; readers never take it.
	loadMu sync.Mutex

	genGauge    *gauge
	modelsGauge *gauge
	reloadOK    *Counter
	reloadErr   *Counter
}

// NewRegistry returns a registry over dir. No models are loaded yet — call
// Load before serving. metrics may be nil.
func NewRegistry(dir string, metrics *Metrics) *Registry {
	r := &Registry{
		dir:         dir,
		genGauge:    metrics.gauge(RegistryGenerationMetric),
		modelsGauge: metrics.gauge(RegistryModelsMetric),
		reloadOK:    metrics.counterWith(ReloadsMetric, label{Key: "result", Value: "ok"}),
		reloadErr:   metrics.counterWith(ReloadsMetric, label{Key: "result", Value: "error"}),
	}
	r.snap.Store(&regSnapshot{entries: map[string]*Entry{}})
	return r
}

// Dir returns the model directory the registry loads from.
func (r *Registry) Dir() string { return r.dir }

// Load scans the model directory and swaps in a new snapshot holding every
// *.predtop file it contains, returning the new generation and model count.
// The swap is all-or-nothing: any unreadable model file fails the whole load
// and leaves the previous snapshot (and generation) serving.
func (r *Registry) Load() (gen uint64, n int, err error) {
	r.loadMu.Lock()
	defer r.loadMu.Unlock()
	dirents, err := os.ReadDir(r.dir)
	if err != nil {
		r.reloadErr.Inc()
		return r.snap.Load().gen, 0, fmt.Errorf("serve: reading model dir: %w", err)
	}
	entries := map[string]*Entry{}
	var keys []string
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ModelExt) {
			continue
		}
		path := filepath.Join(r.dir, de.Name())
		tr, err := predictor.LoadFile(path)
		if err != nil {
			r.reloadErr.Inc()
			return r.snap.Load().gen, 0, fmt.Errorf("serve: loading %s: %w", path, err)
		}
		key := strings.TrimSuffix(de.Name(), ModelExt)
		entries[key] = &Entry{Key: key, Path: path, Family: tr.Model.Name(), Trained: tr}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	next := &regSnapshot{gen: r.snap.Load().gen + 1, entries: entries, keys: keys}
	r.snap.Store(next)
	r.genGauge.Set(float64(next.gen))
	r.modelsGauge.Set(float64(len(entries)))
	r.reloadOK.Inc()
	return next.gen, len(entries), nil
}

// Lookup resolves key against the current snapshot, returning the entry and
// the snapshot's generation. An empty key resolves to the sole entry when the
// registry holds exactly one model (the convenient single-model deployment).
func (r *Registry) Lookup(key string) (*Entry, uint64, bool) {
	s := r.snap.Load()
	if key == "" && len(s.keys) == 1 {
		key = s.keys[0]
	}
	e, ok := s.entries[key]
	return e, s.gen, ok
}

// Snapshot returns the current entries in key order plus the generation.
func (r *Registry) Snapshot() ([]*Entry, uint64) {
	s := r.snap.Load()
	out := make([]*Entry, 0, len(s.keys))
	for _, k := range s.keys {
		out = append(out, s.entries[k])
	}
	return out, s.gen
}

// Generation returns the current snapshot's generation (0 before the first
// successful Load).
func (r *Registry) Generation() uint64 { return r.snap.Load().gen }

// Len returns the number of resident models.
func (r *Registry) Len() int { return len(r.snap.Load().keys) }
