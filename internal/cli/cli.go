// Package cli is the one run lifecycle behind the cmd/ tools. The flags they
// share are declared here once (Flags.Register), Open turns them into live
// internal/obs handles and a run-ledger manifest, and Run.Close flushes,
// writes, and records everything in one fixed order. A tool is a run(args,
// stdout, stderr) error — parse flags, resolve names (Bench, Platform,
// FindScenario, Arch, ExperimentPreset), Open, work, save results, Close —
// under a main that only reports run's error, so no failure path skips a
// deferred close.
//
// The shared flags; a tool registers the groups it takes and keeps its own
// defaults and help text:
//
//	-seed N       run seed; the trace id derived from (seed, tool) is stamped
//	              on every JSONL record, the Chrome trace, progress lines and
//	              flight dumps, so one grep joins a run
//	-quiet        silence progress lines (results still print)
//	-metrics F    stream the tool's JSONL records to F (predtop-train's epoch
//	              records, the daemon's access, slo_breach and metrics records)
//	-trace F      write the span profiler's intervals (and any simulated
//	              schedule) as a Chrome-tracing (Perfetto) timeline to F
//	-listen A     serve /healthz, /debug/flightrecorder and /debug/pprof/ on A
//	-profile F    write the same spans as a hierarchical self-time tree to F
//	-runledger D  record the run's manifest in ledger D (see predtop-runs)
//	-preset NAME  experiment scale: quick, paper, or paperlite
//
// All of them only observe: results are bitwise identical with or without.
// A handle whose flag is off stays nil (every obs and runledger handle is
// nil-safe). The span profiler (Run.Prof) is the one wall clock batch code
// starts and stops; -trace or -profile turns it on. Fan-out width is
// GOMAXPROCS — there is no worker flag, and results are bitwise identical at
// any setting. There is no metrics registry here: it is the serving daemon's
// (internal/serve), and a batch tool's -listen answers /metrics 404. A worker
// panic or SIGQUIT dumps the flight recorder's recent events plus goroutine
// stacks to stderr.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"predtop/internal/obs"
	"predtop/internal/parallel"
	"predtop/internal/runledger"
)

// Main is the body of every tool's main, os.Exit(cli.Main(run)): it reports
// run's error on stderr and returns the exit status.
func Main(run func(args []string, stdout, stderr io.Writer) error) int {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
		return 1
	}
	return 0
}

// Group selects shared flags for Flags.Register.
type Group uint

// The shared flag groups; groupOf maps each flag to its group.
const (
	Seed Group = 1 << iota
	Quiet
	Metrics
	Telemetry
	Ledger
	Preset
)

var groupOf = map[string]Group{"seed": Seed, "quiet": Quiet, "metrics": Metrics, "trace": Telemetry,
	"listen": Telemetry, "profile": Telemetry, "runledger": Ledger, "preset": Preset}

// Flags holds the parsed values of the shared flags.
type Flags struct {
	Seed                            int64
	Quiet                           bool
	Metrics, Trace, Listen, Profile string
	Ledger, Preset                  string
}

// Register declares the flags of groups on fs. -seed defaults to f.Seed as
// the caller set it; usage replaces a flag's help text, keyed by flag name.
func (f *Flags) Register(fs *flag.FlagSet, groups Group, usage map[string]string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.Int64Var(&f.Seed, "seed", f.Seed, "random seed")
	all.BoolVar(&f.Quiet, "quiet", false, "suppress progress output")
	all.StringVar(&f.Metrics, "metrics", "", "write JSONL run records to this file")
	all.StringVar(&f.Trace, "trace", "", "write a Chrome-tracing (Perfetto) JSON file to this path")
	all.StringVar(&f.Listen, "listen", "", "serve /healthz, /debug/flightrecorder and /debug/pprof/ on this address while the run lasts, e.g. :9090")
	all.StringVar(&f.Profile, "profile", "", "write a per-phase self-time span profile to this file")
	all.StringVar(&f.Ledger, "runledger", "", "record this run's manifest into the given run-ledger directory (see predtop-runs)")
	all.StringVar(&f.Preset, "preset", "quick", "experiment scale: quick, paper, or paperlite")
	all.VisitAll(func(fl *flag.Flag) {
		if groups&groupOf[fl.Name] == 0 {
			return
		}
		if text, ok := usage[fl.Name]; ok {
			fl.Usage = text
		}
		fs.Var(fl.Value, fl.Name, fl.Usage)
	})
}

// Options is what Open needs beyond the shared flags.
type Options struct {
	Tool string // trace-context and manifest name, e.g. "predtop-train"
	Seed int64  // the run's effective seed (the preset's when -seed is 0)
	// Stdout backs Run.Out; Progress takes progress lines, Stderr flight dumps.
	Stdout, Progress, Stderr io.Writer
	Out                      string   // the -out report file Run.Out tees into
	Dirs                     []string // outputs written last (-o, -json): their directory must exist ("" passes)
}

// Run is one invocation's open telemetry; a handle is nil when its flag is off.
type Run struct {
	TC      *obs.TraceContext
	Flight  *obs.FlightRecorder
	Log     *obs.Logger
	Sink    *obs.Sink
	Trace   *obs.TraceBuilder
	Prof    *obs.Profiler
	Man     *runledger.Manifest
	Out     io.Writer // stdout, teed into -out when set
	started time.Time
	ledger  *runledger.Store
	outputs []output
	stops   []func() // teardown, last in first out
}

// output is a file Open created; Close renders into it and closes it.
type output struct {
	path, what string // what names the file in the "wrote … to" progress line
	f          *os.File
	render     func(io.Writer) error
}

// Open builds the run's handles in one fixed order, creating every output
// file up front so an unwritable path fails before any work; a failed Open
// leaves nothing behind: hooks uninstalled, files closed and removed.
func Open(f *Flags, o Options) (_ *Run, err error) {
	r := &Run{started: time.Now(), Out: o.Stdout}
	defer func() {
		if err != nil {
			r.Close(err)
			for _, out := range r.outputs {
				os.Remove(out.path)
			}
		}
	}()
	for _, p := range o.Dirs {
		if st, err := os.Stat(filepath.Dir(p)); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("output %s: %s is not a directory", p, filepath.Dir(p))
		}
	}
	r.TC = obs.NewTraceContext(o.Seed, o.Tool)
	r.Flight = obs.NewFlightRecorder(0)
	r.Flight.SetTraceContext(r.TC)
	parallel.SetPanicHook(r.Flight.PanicHook(o.Stderr))
	r.stops = append(r.stops, func() { parallel.SetPanicHook(nil) }, r.Flight.HandleSignals(o.Stderr))
	r.Log = obs.NewLogger(o.Progress, f.Quiet).WithTrace(r.TC)
	if f.Metrics != "" {
		file, err := r.create(f.Metrics, "", func(io.Writer) error { return r.Sink.Close() })
		if err != nil {
			return nil, err
		}
		r.Sink = obs.NewSink(file)
		r.Sink.SetTraceContext(r.TC)
		r.Sink.AttachFlight(r.Flight)
	}
	if f.Trace != "" {
		r.Trace = obs.NewTrace()
		r.Trace.SetTraceID(r.TC.TraceID())
		if _, err = r.create(f.Trace, "trace", r.Trace.Render); err != nil {
			return nil, err
		}
	}
	// The span profiler is the run's one wall clock: -trace renders its span
	// intervals as a timeline, -profile its aggregated tree, so either flag
	// turns it on.
	if f.Trace != "" || f.Profile != "" {
		r.Prof = obs.NewProfiler()
		r.Prof.AttachTrace(r.Trace, "spans")
	}
	if f.Profile != "" {
		if _, err = r.create(f.Profile, "span profile", r.Prof.WriteProfileTree); err != nil {
			return nil, err
		}
	}
	if o.Out != "" {
		file, err := r.create(o.Out, "", func(io.Writer) error { return nil })
		if err != nil {
			return nil, err
		}
		r.Out = io.MultiWriter(o.Stdout, file)
	}
	r.ledger = runledger.Open(f.Ledger)
	if f.Listen != "" {
		srv, err := obs.StartServer(context.Background(), obs.ServerConfig{Addr: f.Listen, Flight: r.Flight})
		if err != nil {
			return nil, err
		}
		r.stops = append(r.stops, func() { srv.Close() })
		r.Log.Printf("serving /debug/pprof/ and /debug/flightrecorder at %s", srv.URL())
	}
	if r.ledger != nil {
		r.Man = runledger.New(o.Tool, o.Seed)
		r.Man.Session.StartedUnix = r.started.Unix()
		r.Man.SetTraceID(r.TC.TraceID())
		for _, kv := range [][2]string{{"out", o.Out}, {"metrics", f.Metrics}, {"trace", f.Trace}, {"listen", f.Listen}, {"profile", f.Profile}} {
			r.Man.SetOutput(kv[0], kv[1])
		}
	}
	r.Flight.Note("run", "start")
	return r, nil
}

// create opens an output file now and queues its write for Close.
func (r *Run) create(path, what string, render func(io.Writer) error) (*os.File, error) {
	f, err := os.Create(path)
	if err == nil {
		r.outputs = append(r.outputs, output{path, what, f, render})
	}
	return f, err
}

// Observer bundles the handles for experiments.Preset.Obs. Every handle is
// nil-safe, so a bare run gets the same bundle with its optional handles nil.
func (r *Run) Observer() obs.Observer {
	return obs.Observer{Trace: r.Trace, Prof: r.Prof, Flight: r.Flight, Ctx: r.TC}
}

// Close finishes the run in one fixed order — sink flush, trace and profile
// files, ledger manifest (only when the run succeeded: runErr nil), teardown —
// attempting every step and returning runErr joined with the errors.
func (r *Run) Close(runErr error) error {
	errs := []error{runErr}
	for _, out := range r.outputs {
		if err := errors.Join(out.render(out.f), out.f.Close()); err != nil {
			errs = append(errs, fmt.Errorf("writing %s: %w", out.path, err))
		} else if out.what != "" {
			r.Log.Printf("wrote %s to %s", out.what, out.path)
		}
	}
	if r.Man != nil && runErr == nil {
		r.Man.Session.WallSeconds = time.Since(r.started).Seconds()
		entry, err := r.ledger.Put(r.Man)
		if errs = append(errs, err); err == nil {
			r.Log.Printf("recorded run %s in %s", entry.ID, r.ledger.Dir())
		}
	}
	for i := len(r.stops) - 1; i >= 0; i-- {
		r.stops[i]()
	}
	return errors.Join(errs...)
}
