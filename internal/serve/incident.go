package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"predtop/internal/obs"
)

// incidentCapture turns SLO breach edges into evidence bundles. Each
// ok→breach transition produces, under IncidentDir, a flight-recorder dump
// (what the daemon was doing in the seconds before the breach) and a
// bounded-window CPU profile (what it was burning time on during it), plus
// one {"event":"slo_breach"} JSONL record naming both artifacts and the worst
// offenders' trace ids — the same ids the access log and /statusz carry, so
// one grep joins the whole incident.
//
// Capture runs on its own goroutine: the request that crossed the line is
// never blocked on file IO or the profile window. A nil capture is inert.
type incidentCapture struct {
	dir    string
	window time.Duration
	flight *obs.FlightRecorder
	sink   *obs.Sink
	log    *obs.Logger

	seq atomic.Int64
	mu  sync.Mutex // serializes captures: at most one CPU profile at a time
	wg  sync.WaitGroup
}

func newIncidentCapture(dir string, window time.Duration, flight *obs.FlightRecorder, sink *obs.Sink, log *obs.Logger) *incidentCapture {
	if window <= 0 {
		window = 250 * time.Millisecond
	}
	return &incidentCapture{dir: dir, window: window, flight: flight, sink: sink, log: log}
}

// onBreach is the SLOTracker edge callback.
func (ic *incidentCapture) onBreach(snap obs.SLOSnapshot) {
	if ic == nil {
		return
	}
	n := ic.seq.Add(1)
	ic.wg.Add(1)
	go func() {
		defer ic.wg.Done()
		ic.capture(n, snap)
	}()
}

// capture writes one incident bundle. Artifact failures degrade to error
// fields on the slo_breach record rather than losing the record itself.
func (ic *incidentCapture) capture(n int64, snap obs.SLOSnapshot) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	rec := map[string]any{
		"event": "slo_breach", "incident": n, "breaches": snap.Breaches,
		"p99_objective_s": snap.P99Objective, "err_objective": snap.ErrObjective,
		"windows": snap.Windows, "worst": snap.Worst,
	}
	if ic.dir != "" {
		if err := os.MkdirAll(ic.dir, 0o755); err != nil {
			rec["dir_error"] = err.Error()
		} else {
			base := filepath.Join(ic.dir, fmt.Sprintf("incident-%03d", n))
			if p, err := ic.dumpFlight(base); err != nil {
				rec["flight_error"] = err.Error()
			} else if p != "" {
				rec["flight_dump"] = p
			}
			if p, err := ic.profile(base); err != nil {
				rec["profile_error"] = err.Error()
			} else {
				rec["cpu_profile"] = p
			}
		}
	}
	ic.sink.Emit(rec)
	_ = ic.sink.Flush() // the bundle must be on disk even if the daemon dies next
	ic.log.Printf("slo breach #%d: %d worst request(s) captured under %s",
		n, len(snap.Worst), ic.dir)
}

// dumpFlight writes the flight-recorder ring to <base>-flight.jsonl. Returns
// "" with no error when no recorder is attached.
func (ic *incidentCapture) dumpFlight(base string) (string, error) {
	if ic.flight == nil {
		return "", nil
	}
	p := base + "-flight.jsonl"
	f, err := os.Create(p)
	if err != nil {
		return "", err
	}
	ic.flight.Dump(f)
	return p, f.Close()
}

// profile collects a CPU profile over the configured window into
// <base>-cpu.pprof. A concurrent profiler (e.g. a live /debug/pprof/profile
// scrape) makes StartCPUProfile fail; that surfaces as profile_error on the
// record instead of aborting the bundle.
func (ic *incidentCapture) profile(base string) (string, error) {
	p := base + "-cpu.pprof"
	f, err := os.Create(p)
	if err != nil {
		return "", err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(p)
		return "", err
	}
	time.Sleep(ic.window)
	pprof.StopCPUProfile()
	return p, f.Close()
}

// drain blocks until every in-flight capture finished — called by
// Server.Close so a breach near shutdown still gets its bundle, and by tests.
func (ic *incidentCapture) drain() {
	if ic == nil {
		return
	}
	ic.wg.Wait()
}

// count returns how many breaches have started capture (0 on nil).
func (ic *incidentCapture) count() int64 {
	if ic == nil {
		return 0
	}
	return ic.seq.Load()
}
