package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predtop/internal/obs"
)

func options(progress io.Writer) Options {
	return Options{Tool: "predtop-test", Seed: 7, Stdout: io.Discard, Progress: progress, Stderr: io.Discard}
}

// With every flag off the nil-handle contract holds: no optional handle, no
// file, and an observer that bundles only the always-on handles.
func TestOpenAllFlagsOff(t *testing.T) {
	r, err := Open(&Flags{}, options(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	if r.Sink != nil || r.Trace != nil || r.Prof != nil || r.Man != nil {
		t.Errorf("handles built with every flag off: %+v", r)
	}
	if o := r.Observer(); o != (obs.Observer{Flight: r.Flight, Ctx: r.TC}) {
		t.Errorf("Observer() with every flag off = %+v, want only the flight recorder and trace context", o)
	}
	if len(r.outputs) != 0 {
		t.Errorf("files created with every flag off: %v", r.outputs)
	}
	if r.TC.TraceID() != obs.NewTraceContext(7, "predtop-test").TraceID() || r.Flight == nil || r.Log == nil || r.Out != io.Discard {
		t.Errorf("always-on handles: %+v", r)
	}
	if err := r.Close(nil); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// Output files exist as soon as Open returns; Close writes them in the fixed
// order — the JSONL flush; trace and profile; the ledger manifest after both.
// One trace id, derived from (seed, tool), joins every channel: each JSONL
// record, the Chrome trace, progress lines, the flight dump and the manifest.
func TestOpenCreatesFilesCloseWritesInOrder(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		Metrics: filepath.Join(dir, "m.jsonl"), Trace: filepath.Join(dir, "t.json"),
		Profile: filepath.Join(dir, "p.txt"), Ledger: filepath.Join(dir, "L"),
	}
	var progress, stdout bytes.Buffer
	o := options(&progress)
	o.Stdout, o.Out = &stdout, filepath.Join(dir, "report.txt")
	r, err := Open(f, o)
	if err != nil {
		t.Fatal(err)
	}
	id := r.TC.TraceID()
	var dump bytes.Buffer
	r.Flight.Dump(&dump)
	if !strings.Contains(dump.String(), `"trace_id":"`+id+`"`) {
		t.Errorf("flight dump lacks the trace id:\n%s", &dump)
	}
	for _, p := range []string{f.Metrics, f.Trace, f.Profile, o.Out} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("not created by Open: %v", err)
		}
	}
	if r.Man == nil {
		t.Fatalf("handles missing: %+v", r)
	}
	io.WriteString(r.Out, "report line\n")
	r.Sink.Emit(map[string]string{"event": "run"})
	r.Prof.Start("work").End()
	if err := r.Close(nil); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var events []string
	for _, line := range strings.Split(strings.TrimSpace(read(t, f.Metrics)), "\n") {
		var rec struct {
			Event   string `json:"event"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.TraceID != r.TC.TraceID() {
			t.Errorf("record %q: %v", line, err)
		}
		events = append(events, rec.Event)
	}
	if got := strings.Join(events, " "); got != "run" {
		t.Errorf("JSONL sequence = %q, want the tool's own record only", got)
	}
	if trace := read(t, f.Trace); strings.Count(trace, `"work"`) != 1 || !strings.Contains(trace, `"trace_id":"`+id+`"`) || !strings.HasPrefix(read(t, f.Profile), "# span profile") {
		t.Error("trace (with the run's trace id) or profile not rendered")
	}
	if read(t, o.Out) != "report line\n" || stdout.String() != "report line\n" {
		t.Errorf("-out tee: file %q, stdout %q", read(t, o.Out), &stdout)
	}
	log := progress.String()
	if !strings.HasPrefix(log, "["+id+"] ") {
		t.Errorf("progress lines lack the trace prefix:\n%s", log)
	}
	wroteTrace, wroteProf, recorded := strings.Index(log, "wrote trace to"), strings.Index(log, "wrote span profile to"), strings.Index(log, "recorded run")
	if wroteTrace < 0 || wroteProf < wroteTrace || recorded < wroteProf {
		t.Errorf("close order (trace, profile, ledger) not visible in progress:\n%s", log)
	}
	manifests, _ := filepath.Glob(filepath.Join(f.Ledger, "*.json"))
	if len(manifests) != 1 {
		t.Fatalf("ledger holds %d manifests", len(manifests))
	}
	for _, want := range []string{`"trace": "` + f.Trace, `"out": "` + o.Out, `"trace_id": "` + r.TC.TraceID()} {
		if man := read(t, manifests[0]); !strings.Contains(man, want) {
			t.Errorf("manifest lacks %s:\n%s", want, man)
		}
	}
}

// The metrics registry is the daemon's: a batch tool's JSONL holds only its
// own records, and its -listen serves /healthz but has no /metrics page.
func TestBatchToolHasNoRegistry(t *testing.T) {
	f := &Flags{Metrics: filepath.Join(t.TempDir(), "m.jsonl"), Listen: "127.0.0.1:0"}
	var progress bytes.Buffer
	r, err := Open(f, options(&progress))
	if err != nil {
		t.Fatal(err)
	}
	url := progress.String()
	url = strings.TrimSpace(url[strings.Index(url, "http://"):])
	for path, want := range map[string]int{"/healthz": http.StatusOK, "/metrics": http.StatusNotFound} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	r.Sink.Emit(map[string]string{"event": "run"})
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}
	if got := read(t, f.Metrics); strings.Count(got, "\n") != 1 || !strings.Contains(got, `"event":"run"`) {
		t.Errorf("JSONL of a batch run, want the run record only:\n%s", got)
	}
}

// A failed run still flushes its telemetry but records no manifest, and
// Close hands the run's error back joined with its own.
func TestCloseAfterFailedRun(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{Metrics: filepath.Join(dir, "m.jsonl"), Ledger: filepath.Join(dir, "L")}
	r, err := Open(f, options(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	r.outputs[0].f.Close() // the sink's flush will now fail too
	r.Sink.Emit(map[string]string{"event": "run"})
	err = r.Close(boom)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "writing "+f.Metrics) {
		t.Errorf("Close error = %v, want boom joined with the write failure", err)
	}
	if _, err := os.Stat(f.Ledger); err == nil {
		t.Error("a failed run was recorded in the ledger")
	}
}

// Every unwritable output fails Open itself, and a failed Open removes what
// it had already created (the listen case fails after its -metrics file).
func TestOpenFailsBeforeAnyWork(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		f Flags
		o Options
	}{
		"trace":   {f: Flags{Trace: "/nonexistent/dir/t.json"}},
		"profile": {f: Flags{Profile: "/nonexistent/dir/p.txt"}},
		"metrics": {f: Flags{Metrics: "/nonexistent/dir/m.jsonl"}},
		"out":     {o: Options{Out: "/nonexistent/dir/r.txt"}},
		"dirs":    {o: Options{Dirs: []string{"/nonexistent/dir/m.predtop"}}},
		"listen":  {f: Flags{Listen: "127.0.0.1:99999", Metrics: filepath.Join(dir, "m.jsonl")}},
	} {
		tc.o.Tool, tc.o.Stdout, tc.o.Progress, tc.o.Stderr = "predtop-test", io.Discard, io.Discard, io.Discard
		if r, err := Open(&tc.f, tc.o); err == nil {
			r.Close(nil)
			t.Errorf("%s: Open succeeded", name)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("a failed Open left %v behind", left)
	}
}

func TestRegisterGroupsAndUsage(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Flags{Seed: 1}
	f.Register(fs, Seed|Quiet|Metrics|Ledger, map[string]string{"quiet": "hush"})
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	if got := strings.Join(names, " "); got != "metrics quiet runledger seed" {
		t.Errorf("registered %q", got)
	}
	if fs.Lookup("quiet").Usage != "hush" || fs.Lookup("seed").DefValue != "1" || fs.Lookup("seed").Usage != "random seed" {
		t.Errorf("usage/defaults: %+v %+v", fs.Lookup("quiet"), fs.Lookup("seed"))
	}
	if err := fs.Parse([]string{"-quiet", "-seed", "9", "-runledger", "runs", "-metrics=m.jsonl"}); err != nil {
		t.Fatal(err)
	}
	if !f.Quiet || f.Seed != 9 || f.Ledger != "runs" || f.Metrics != "m.jsonl" {
		t.Errorf("parsed %+v", f)
	}
	// Every declared flag belongs to a group, so none can be unreachable.
	all := flag.NewFlagSet("t", flag.ContinueOnError)
	new(Flags).Register(all, ^Group(0), nil)
	n := 0
	all.VisitAll(func(*flag.Flag) { n++ })
	if n != len(groupOf) || n != 8 {
		t.Errorf("%d flags registered with every group on, %d grouped, want 8", n, len(groupOf))
	}
}

func TestResolvers(t *testing.T) {
	if cfg, err := Bench("gpt3", 6); err != nil || cfg.Name != "GPT-3" || cfg.Layers != 6 {
		t.Errorf("Bench: %+v, %v", cfg, err)
	}
	if _, err := Bench("gpt4", 0); err == nil {
		t.Error("Bench accepted gpt4")
	}
	for _, idx := range []int{1, 2} {
		p, err := Platform(idx)
		if err != nil || p.Index != idx {
			t.Errorf("Platform(%d): %+v, %v", idx, p, err)
		}
		if sc, err := FindScenario(p, 1, 1); err != nil || sc.Mesh.Index != 1 || sc.Config.Index != 1 {
			t.Errorf("FindScenario on platform %d: %+v, %v", idx, sc, err)
		}
		if _, err := FindScenario(p, 9, 1); err == nil {
			t.Errorf("FindScenario accepted mesh 9 on platform %d", idx)
		}
	}
	for _, idx := range []int{0, 3, -1} {
		if _, err := Platform(idx); err == nil {
			t.Errorf("Platform accepted %d", idx)
		}
	}
	for name, arch := range map[string]string{"tran": "Tran", "GCN": "GCN", "gat": "GAT"} {
		spec, err := Arch(name)
		if err != nil || spec.Arch != arch {
			t.Errorf("Arch(%q): %+v, %v", name, spec, err)
		}
		if m, err := spec.Build(rand.New(rand.NewSource(1))); err != nil || m.Name() != arch {
			t.Errorf("Arch(%q) builds %v, %v", name, m, err)
		}
	}
	if _, err := Arch("foo"); err == nil {
		t.Error("Arch accepted foo")
	}
	for _, name := range []string{"quick", "paper", "paperlite"} {
		f := Flags{Preset: name}
		p, err := f.ExperimentPreset()
		if err != nil || p.Name != name || p.Seed == 0 {
			t.Errorf("preset %s: %+v, %v", name, p.Name, err)
		}
		f.Seed = 42
		if p, _ := f.ExperimentPreset(); p.Seed != 42 {
			t.Errorf("preset %s: -seed 42 gave seed %d", name, p.Seed)
		}
	}
	if _, err := (&Flags{Preset: "huge"}).ExperimentPreset(); err == nil {
		t.Error("ExperimentPreset accepted huge")
	}
}

func read(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
