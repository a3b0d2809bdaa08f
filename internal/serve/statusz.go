package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// statuszData is everything the /statusz page renders, gathered by
// Server.statuszData and laid out by renderStatusz. The split keeps the
// renderer a pure function of its input, so a golden test can pin the page
// byte-for-byte without a live daemon.
type statuszData struct {
	Addr          string
	ModelDir      string
	Models        int
	Generation    uint64
	UptimeSeconds int64

	QueueDepth  int64
	CacheHits   int64
	CacheMisses int64

	SLOEnabled bool
	SLO        sloSnapshot
	Incidents  int64
}

// gfloat renders v the same way the Prometheus exposition does: shortest
// round-trip form, integers without a decimal point.
func gfloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderStatusz writes the human-readable status page: identity and uptime,
// the SLO verdict table with per-window quantiles and burn rates, the worst
// recent requests with their trace ids (the handles into the access log and
// the flight recorder), and the queue/cache counters.
func renderStatusz(w io.Writer, d statuszData) {
	fmt.Fprintf(w, "predtop-serve status\n\n")
	fmt.Fprintf(w, "addr:       %s\n", d.Addr)
	fmt.Fprintf(w, "model dir:  %s\n", d.ModelDir)
	fmt.Fprintf(w, "models:     %d (generation %d)\n", d.Models, d.Generation)
	fmt.Fprintf(w, "uptime:     %ds\n\n", d.UptimeSeconds)

	if !d.SLOEnabled {
		fmt.Fprintf(w, "slo: disabled (start with -slo-p99 / -slo-err)\n\n")
	} else {
		fmt.Fprintf(w, "slo: p99 objective %ss, error budget %s\n",
			gfloat(d.SLO.P99Objective), gfloat(d.SLO.ErrObjective))
		state := "ok"
		if d.SLO.Breached {
			state = "BREACHED"
		}
		fmt.Fprintf(w, "state: %s (%d breach(es), %d incident bundle(s))\n",
			state, d.SLO.Breaches, d.Incidents)
		fmt.Fprintf(w, "%-8s %7s %7s %6s %10s %10s %10s %9s %7s\n",
			"window", "total", "errors", "slow", "p50_s", "p95_s", "p99_s", "err_rate", "burn")
		for _, ws := range d.SLO.Windows {
			fmt.Fprintf(w, "%-8s %7d %7d %6d %10s %10s %10s %9s %7s\n",
				ws.Window, ws.Total, ws.Errors, ws.Slow,
				gfloat(ws.P50), gfloat(ws.P95), gfloat(ws.P99),
				gfloat(ws.ErrRate), gfloat(ws.BurnRate))
		}
		if len(d.SLO.Worst) > 0 {
			fmt.Fprintf(w, "worst recent requests:\n")
			for _, wr := range d.SLO.Worst {
				fmt.Fprintf(w, "  %ss  trace=%s span=%s\n",
					gfloat(wr.LatencySeconds), wr.TraceID, wr.SpanID)
			}
		}
		fmt.Fprintf(w, "\n")
	}

	fmt.Fprintf(w, "queue depth: %d\n", d.QueueDepth)
	fmt.Fprintf(w, "cache:       %d hit(s), %d miss(es)\n", d.CacheHits, d.CacheMisses)
}

// statuszData gathers the live page inputs: registry state, the SLO
// snapshot, and the queue/cache instruments the server already holds (nil
// metrics registry → nil handles → zeros, like everything else).
func (s *Server) statuszData() statuszData {
	entries, gen := s.registry.Snapshot()
	return statuszData{
		Addr:          s.Addr(),
		ModelDir:      s.cfg.ModelDir,
		Models:        len(entries),
		Generation:    gen,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		QueueDepth:    int64(s.waiting.Value()),
		CacheHits:     s.hits.Value(),
		CacheMisses:   s.misses.Value(),
		SLOEnabled:    s.slo != nil,
		SLO:           s.slo.Snapshot(),
		Incidents:     s.incidents.count(),
	}
}

// handleStatusz answers GET /statusz with the rendered page.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request, _ *reqInfo) int {
	if r.Method != http.MethodGet {
		return writeErr(w, http.StatusMethodNotAllowed, "GET only")
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	renderStatusz(w, s.statuszData())
	return http.StatusOK
}
