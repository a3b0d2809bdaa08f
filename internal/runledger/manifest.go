// Package runledger gives every tool invocation a persistent, comparable
// record. Each predtop-train/eval/plan/serve/replay run writes one manifest
// into a content-addressed store under runs/ (see Store), so the questions
// the per-process telemetry cannot answer — did this encoder variant cut the
// transformer MRE, did that change regress plan latency, which weights did
// last week's numbers come from — become diffs over files instead of
// archaeology over scrollback.
//
// A manifest has two sections. The Canonical section holds everything that
// is a pure function of (tool, seed, result-determining configuration):
// config knobs, the FNV-1a config and weight fingerprints, error-attribution
// snapshots (a run's held-out MRE, recorded once, with where its residuals
// live), plan provenance reports, and deterministic result metrics. Two runs of the same
// seed render byte-identical Canonical JSON — the property `make runs-smoke`
// pins. The Session section isolates everything wall-clock or host-bound
// (timestamps, durations, paths, addresses), so reruns differ only there.
// The ledger only observes: recording a run never feeds back into training,
// evaluation, or planning.
package runledger

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"

	"predtop/internal/planner"
	"predtop/internal/predictor"
)

// SchemaVersion is bumped whenever the canonical manifest layout changes
// incompatibly. It is part of the canonical bytes and the config
// fingerprint, so runs of two versions never share an id; Compare shows it as
// one more identity field and diffs whatever else the two manifests carry.
const SchemaVersion = 1

// Canonical is the deterministic section of a manifest: byte-identical
// across runs of the same tool, seed, and result-determining config.
type Canonical struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"`
	Seed   int64  `json:"seed"`
	// TraceID is the run's seed-derived correlation id — the same id the
	// predtop_run_info series, JSONL events, and Chrome trace carry.
	TraceID string `json:"trace_id,omitempty"`
	// Config holds the result-determining flags (never paths, addresses, or
	// worker counts — those live in Session). encoding/json sorts map keys,
	// so the rendering is order-independent.
	Config map[string]string `json:"config,omitempty"`
	// ConfigFingerprint is the 16-hex FNV-1a hash of (schema, tool, seed,
	// sorted config) — equal fingerprints mean comparable runs. Filled by
	// CanonicalJSON.
	ConfigFingerprint string `json:"config_fingerprint,omitempty"`
	// WeightsFingerprint pins the trained predictor weights the run produced
	// or served, in planner.ProviderInfo's FNV-1a scheme.
	WeightsFingerprint string `json:"weights_fingerprint,omitempty"`
	// Metrics holds deterministic scalar results (training epochs, win
	// rates) — never wall-clock readings.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Attribution maps a label (model family) to the run's error-attribution
	// snapshot: its held-out MRE and sample count, and where the residuals
	// live, by op type, node count, and stage depth.
	Attribution map[string]*predictor.Attribution `json:"attribution,omitempty"`
	// Plans holds the provenance report of every plan the run produced, in
	// emission order: stages, search, cost, the Eqn-4 decomposition and the
	// predictor fingerprint, every field a function of the seed.
	Plans []*planner.Report `json:"plans,omitempty"`
}

// Session is the non-canonical section: wall-clock, host, and path facts
// that legitimately differ between reruns of the same seed.
type Session struct {
	StartedUnix int64   `json:"started_unix,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	Host        string  `json:"host,omitempty"`
	GoVersion   string  `json:"go_version,omitempty"`
	// Outputs maps output flags to the paths/addresses the run wrote
	// (model files, metrics JSONL, listen addresses).
	Outputs map[string]string `json:"outputs,omitempty"`
	// Metrics holds wall-clock scalar readings (durations, qps, latency
	// quantiles in seconds).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Manifest is one recorded run. Methods are nil-safe no-ops, matching the
// repo-wide observation-only contract: a tool without -runledger passes a
// nil manifest around and pays nothing.
type Manifest struct {
	Canonical Canonical `json:"canonical"`
	Session   Session   `json:"session"`
}

// New returns a manifest for one invocation of tool with the given seed,
// stamping the schema version and the host/Go-version session facts.
func New(tool string, seed int64) *Manifest {
	host, _ := os.Hostname()
	return &Manifest{
		Canonical: Canonical{Schema: SchemaVersion, Tool: tool, Seed: seed},
		Session:   Session{Host: host, GoVersion: runtime.Version()},
	}
}

// SetTraceID stamps the run's deterministic trace id.
func (m *Manifest) SetTraceID(id string) {
	if m == nil {
		return
	}
	m.Canonical.TraceID = id
}

// SetConfig records one result-determining flag in the canonical section.
func (m *Manifest) SetConfig(key, value string) {
	if m == nil {
		return
	}
	if m.Canonical.Config == nil {
		m.Canonical.Config = map[string]string{}
	}
	m.Canonical.Config[key] = value
}

// SetOutput records an output path or address in the session section.
func (m *Manifest) SetOutput(key, value string) {
	if m == nil || value == "" {
		return
	}
	if m.Session.Outputs == nil {
		m.Session.Outputs = map[string]string{}
	}
	m.Session.Outputs[key] = value
}

// SetWeightsFingerprint pins the run's trained weights.
func (m *Manifest) SetWeightsFingerprint(fp string) {
	if m == nil {
		return
	}
	m.Canonical.WeightsFingerprint = fp
}

// RecordMetric stores one deterministic scalar result in the canonical
// section.
func (m *Manifest) RecordMetric(key string, v float64) {
	if m == nil {
		return
	}
	if m.Canonical.Metrics == nil {
		m.Canonical.Metrics = map[string]float64{}
	}
	m.Canonical.Metrics[key] = v
}

// RecordSessionMetric stores one wall-clock scalar in the session section.
func (m *Manifest) RecordSessionMetric(key string, v float64) {
	if m == nil {
		return
	}
	if m.Session.Metrics == nil {
		m.Session.Metrics = map[string]float64{}
	}
	m.Session.Metrics[key] = v
}

// RecordAttribution attaches one error-attribution snapshot under label.
func (m *Manifest) RecordAttribution(label string, a *predictor.Attribution) {
	if m == nil || a == nil {
		return
	}
	if m.Canonical.Attribution == nil {
		m.Canonical.Attribution = map[string]*predictor.Attribution{}
	}
	m.Canonical.Attribution[label] = a
}

// RecordPlan appends one plan report.
func (m *Manifest) RecordPlan(r *planner.Report) {
	if m == nil || r == nil {
		return
	}
	m.Canonical.Plans = append(m.Canonical.Plans, r)
}

// configFingerprint hashes (schema, tool, seed, sorted config pairs) with
// FNV-1a into 16 hex digits — the "are these runs comparable" key.
func (c *Canonical) configFingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%d\x00", c.Schema, c.Tool, c.Seed)
	keys := make([]string, 0, len(c.Config))
	for k := range c.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\x00", k, c.Config[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// CanonicalJSON renders the canonical section as indented JSON with a
// trailing newline — the byte-identical-per-seed serialization the run id
// is derived from. The config fingerprint is (re)computed on every call, so
// it can never go stale against the config map.
func (m *Manifest) CanonicalJSON() ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("runledger: nil manifest")
	}
	c := m.Canonical
	c.ConfigFingerprint = m.Canonical.configFingerprint()
	b, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RunID returns the 16-hex FNV-1a hash of the canonical JSON bytes: the
// content address of the run. Two runs of the same seed and config share an
// id; any result-determining divergence changes it.
func (m *Manifest) RunID() (string, error) {
	b, err := m.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// MarshalJSON renders the full manifest with the config fingerprint filled,
// so stored files always carry it.
func (m *Manifest) MarshalJSON() ([]byte, error) {
	type alias Manifest // shed the method set to avoid recursion
	a := alias(*m)
	a.Canonical.ConfigFingerprint = m.Canonical.configFingerprint()
	return json.Marshal(&a)
}
