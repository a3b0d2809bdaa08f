package runledger

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predtop/internal/planner"
	"predtop/internal/predictor"
)

// fakeManifest builds a fully-populated manifest without training anything.
func fakeManifest(seed int64, mre float64) *Manifest {
	m := New("predtop-train", seed)
	m.SetTraceID("00000000deadbeef")
	m.SetConfig("bench", "GPT3")
	m.SetConfig("epochs", "12")
	m.SetWeightsFingerprint("1122334455667788")
	m.RecordMetric("epochs_run", 12)
	m.RecordAttribution("Tran", &predictor.Attribution{
		Samples: 2, MREPct: mre,
		ByOp: []predictor.AttributionBucket{{Key: "add", N: 2, Weight: 1, MREPct: mre, MaxPct: mre}},
	})
	m.RecordPlan(&planner.Report{
		Version: "PredTOP-Tran", Model: "GPT3", Platform: "p1", Microbatches: 16,
		Pipeline: planner.PipelineReport{SumStages: 1, MaxStage: 0.5, Total: 8.5},
		Stages:   []planner.StageReport{{}, {}},
	})
	m.Session.StartedUnix = 1700000000 + seed
	m.Session.WallSeconds = 1.5
	m.SetOutput("o", "/tmp/model.json")
	return m
}

func TestCanonicalJSONDeterministicAndSessionFree(t *testing.T) {
	a := fakeManifest(7, 30)
	b := fakeManifest(7, 30)
	// Different session facts must not disturb the canonical bytes.
	b.Session.StartedUnix += 999
	b.Session.WallSeconds = 77
	b.SetOutput("o", "/elsewhere/model.json")
	b.RecordSessionMetric("wall", 3)
	ja, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("canonical sections differ:\n%s\nvs\n%s", ja, jb)
	}
	ida, _ := a.RunID()
	idb, _ := b.RunID()
	if ida != idb || len(ida) != 16 {
		t.Fatalf("run ids %q vs %q", ida, idb)
	}
	// Any result-determining change must move the id.
	c := fakeManifest(7, 31)
	idc, _ := c.RunID()
	if idc == ida {
		t.Fatal("different results share a run id")
	}
	if !strings.Contains(string(ja), `"config_fingerprint"`) {
		t.Fatal("canonical JSON missing config fingerprint")
	}
	// A plan is recorded as the report itself, stage list included.
	if !strings.Contains(string(ja), `"stages": [`) || !strings.Contains(string(ja), `"total": 8.5`) {
		t.Fatalf("canonical JSON does not carry the plan report:\n%s", ja)
	}
}

func TestNilManifestAndStoreAreInert(t *testing.T) {
	var m *Manifest
	m.SetConfig("k", "v")
	m.SetOutput("o", "p")
	m.SetTraceID("x")
	m.SetWeightsFingerprint("f")
	m.RecordMetric("a", 1)
	m.RecordSessionMetric("b", 2)
	m.RecordAttribution("l", &predictor.Attribution{})
	m.RecordPlan(nil)
	var s *Store
	if e, err := s.Put(fakeManifest(1, 10)); err != nil || e.ID != "" {
		t.Fatalf("nil store Put: %+v, %v", e, err)
	}
	if entries, err := s.List(); err != nil || entries != nil {
		t.Fatalf("nil store List: %v, %v", entries, err)
	}
	if Open("") != nil {
		t.Fatal(`Open("") should disable the ledger`)
	}
}

func TestStorePutListResolve(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	s := Open(dir)
	m1 := fakeManifest(7, 30)
	e1, err := s.Put(m1)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(e1.Path) != e1.ID+".json" {
		t.Fatalf("first store name %s for id %s", e1.Path, e1.ID)
	}
	// A same-canonical rerun must not overwrite: .N suffix.
	m1b := fakeManifest(7, 30)
	m1b.Session.WallSeconds = 99
	e1b, err := s.Put(m1b)
	if err != nil {
		t.Fatal(err)
	}
	if e1b.ID != e1.ID || e1b.Path == e1.Path {
		t.Fatalf("rerun: id %s path %s (first %s)", e1b.ID, e1b.Path, e1.Path)
	}
	if filepath.Base(e1b.Path) != e1.ID+".1.json" {
		t.Fatalf("rerun name %s", e1b.Path)
	}
	m2 := fakeManifest(8, 28)
	m2.Session.StartedUnix += 100
	e2, err := s.Put(m2)
	if err != nil {
		t.Fatal(err)
	}

	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("listed %d entries", len(entries))
	}
	if entries[len(entries)-1].ID != e2.ID {
		t.Fatalf("latest entry %s, want %s", entries[len(entries)-1].ID, e2.ID)
	}

	for ref, want := range map[string]string{
		"latest":  e2.Path,
		e2.ID:     e2.Path,
		e2.ID[:6]: e2.Path,
		e1b.Path:  e1b.Path,
		e1.ID:     e1.Path, // exact id prefers the unsuffixed file
		"":        e2.Path,
	} {
		got, err := s.Resolve(ref)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", ref, err)
		}
		if got != want {
			t.Fatalf("Resolve(%q) = %s, want %s", ref, got, want)
		}
	}
	if _, err := s.Resolve("ffff"); err == nil {
		t.Fatal("unknown ref should fail")
	}
	if _, err := s.Resolve("baseline"); err == nil {
		t.Fatal("unpinned baseline should fail")
	}
	if _, err := s.SetBaseline(e1.ID); err != nil {
		t.Fatal(err)
	}
	got, err := s.Resolve("baseline")
	if err != nil || got != e1.Path {
		t.Fatalf("baseline resolves to %s (%v), want %s", got, err, e1.Path)
	}

	// Round-trip: loading preserves the canonical bytes and the id.
	loaded, err := Load(e1.Path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := loaded.RunID()
	if err != nil || id != e1.ID {
		t.Fatalf("loaded id %s (%v), want %s", id, err, e1.ID)
	}
}

func TestCompareAndGate(t *testing.T) {
	base := fakeManifest(7, 30)
	same := fakeManifest(7, 30)
	d := Compare(base, same, "a", "b")
	if !d.CanonicalIdentical {
		t.Fatal("identical manifests should compare identical")
	}
	if msgs := d.Gate(GateThresholds{MREPct: 0.1, LatencyPct: 1}); len(msgs) != 0 {
		t.Fatalf("identical runs gated: %v", msgs)
	}

	worse := fakeManifest(7, 36)
	worse.Canonical.Plans[0].Pipeline.Total = 9.5
	d = Compare(base, worse, "base", "new")
	if d.CanonicalIdentical {
		t.Fatal("diverged manifests compared identical")
	}
	msgs := d.Gate(GateThresholds{MREPct: 2, LatencyPct: 5})
	if len(msgs) != 2 {
		t.Fatalf("want MRE + latency regressions, got %v", msgs)
	}
	// The MRE gate reads each attribution label's whole population: Tran's
	// held-out MRE went 30 → 36.
	if !strings.HasPrefix(msgs[0], "attribution Tran: MRE 30.00% → 36.00% (+6.00 points") || !strings.HasPrefix(msgs[1], "plan 0 ") {
		t.Fatalf("unexpected gate messages: %v", msgs)
	}
	// A label only one run carries is a change, not a regression.
	only := fakeManifest(7, 36)
	only.Canonical.Attribution = map[string]*predictor.Attribution{"GAT": only.Canonical.Attribution["Tran"]}
	if msgs := Compare(base, only, "a", "b").Gate(GateThresholds{MREPct: 2}); len(msgs) != 0 {
		t.Fatalf("a label missing from the base gated: %v", msgs)
	}
	// Within thresholds: no gate.
	if msgs := d.Gate(GateThresholds{MREPct: 10, LatencyPct: 50}); len(msgs) != 0 {
		t.Fatalf("thresholds not honored: %v", msgs)
	}
	// Disabled gates never fire.
	if msgs := d.Gate(GateThresholds{}); len(msgs) != 0 {
		t.Fatalf("disabled gate fired: %v", msgs)
	}

	out := d.Render()
	for _, want := range []string{
		"=== run diff: base → new ===",
		"canonical sections: DIFFER",
		"plans (Eqn-4 total, s)",
		"error attribution (MRE %)",
		"add", // the op bucket key appears in the attribution table
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff rendering missing %q:\n%s", want, out)
		}
	}
	ident := Compare(base, same, "a", "b").Render()
	if !strings.Contains(ident, "canonical sections: identical") || strings.Contains(ident, "metrics") {
		t.Fatalf("identical rendering:\n%s", ident)
	}
}

// TestCompareMetrics: every canonical metric is an identity field of the
// diff, changed when its value moved or one run lacks it, and the rendering
// lists exactly the changed ones; the gate reads none of them.
func TestCompareMetrics(t *testing.T) {
	base, other := fakeManifest(7, 30), fakeManifest(7, 30)
	base.RecordMetric("mre_gpt-3_p1_f80_m1c1_tran", 12.5)
	other.RecordMetric("mre_gpt-3_p1_f80_m1c1_tran", 13)
	base.RecordMetric("mre_gpt-3_p1_f80_m1c1_gcn", 20) // unchanged
	other.RecordMetric("mre_gpt-3_p1_f80_m1c1_gcn", 20)
	base.RecordMetric("specs_gpt-3_p1", 75)     // base only
	other.RecordMetric("win_rate_gpt-3_p1", 50) // other only
	d := Compare(base, other, "base", "new")
	changed := map[string][2]string{}
	for _, f := range d.Fields {
		if f.Changed {
			changed[f.Field] = [2]string{f.Base, f.Other}
		}
	}
	want := map[string][2]string{
		"metric.mre_gpt-3_p1_f80_m1c1_tran": {"12.5", "13"},
		"metric.specs_gpt-3_p1":             {"75", ""},
		"metric.win_rate_gpt-3_p1":          {"", "50"},
	}
	if !maps.Equal(changed, want) {
		t.Fatalf("changed fields %v, want %v", changed, want)
	}
	if msgs := d.Gate(GateThresholds{MREPct: 0.1, LatencyPct: 0.1}); len(msgs) != 0 {
		t.Fatalf("metric changes gated: %v", msgs)
	}
	out := d.Render()
	for _, row := range []string{
		"  metric.mre_gpt-3_p1_f80_m1c1_tran: 12.5 → 13\n",
		"  metric.specs_gpt-3_p1:       75 → -\n",
		"  metric.win_rate_gpt-3_p1:    - → 50\n",
	} {
		if !strings.Contains(out, row) {
			t.Fatalf("diff rendering missing %q:\n%s", row, out)
		}
	}
	if strings.Contains(out, "_gcn") || strings.Contains(out, "epochs_run") {
		t.Fatalf("diff rendering lists an unchanged metric:\n%s", out)
	}
}

func TestManifestJSONCarriesFingerprint(t *testing.T) {
	m := fakeManifest(3, 20)
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var round Manifest
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	if round.Canonical.ConfigFingerprint != m.Canonical.configFingerprint() {
		t.Fatalf("stored fingerprint %q, want %q",
			round.Canonical.ConfigFingerprint, m.Canonical.configFingerprint())
	}
	if round.Session.Outputs["o"] != "/tmp/model.json" {
		t.Fatal("session outputs lost in round trip")
	}
}

// Manifests are written whole or not at all: a stray temporary file from a
// killed write is never listed, a stored run leaves no temporary behind, and a
// Put that fails while writing leaves nothing.
func TestStoreWritesAreAtomic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	s := Open(dir)
	e, err := s.Put(fakeManifest(7, 30))
	if err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != e.ID+".json" {
		t.Fatalf("after Put the store holds %v, want only %s.json", names, e.ID)
	}
	if err := os.WriteFile(filepath.Join(dir, e.ID+".json.tmp123"), []byte(`{"canon`), 0o644); err != nil {
		t.Fatal(err)
	}
	if entries, err := s.List(); err != nil || len(entries) != 1 {
		t.Fatalf("List with a torn temporary file: %v, %v", entries, err)
	}

	empty := filepath.Join(t.TempDir(), "runs")
	bad := fakeManifest(8, 30)
	bad.RecordSessionMetric("wall", math.NaN()) // not JSON-encodable: the write fails
	if _, err := Open(empty).Put(bad); err == nil {
		t.Fatal("Put of an unencodable manifest succeeded")
	}
	if names := dirNames(t, empty); len(names) != 0 {
		t.Fatalf("a failed Put left %v", names)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
