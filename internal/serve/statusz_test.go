package serve

import (
	"strings"
	"testing"
	"time"
)

// TestRenderStatuszGolden pins the /statusz page byte-for-byte for a fixed
// snapshot — the renderer is a pure function of statuszData, so this is the
// layout contract operators' eyes (and any scraping one-liners) depend on.
func TestRenderStatuszGolden(t *testing.T) {
	d := statuszData{
		Addr:          "127.0.0.1:9400",
		ModelDir:      "/models",
		Models:        2,
		Generation:    3,
		UptimeSeconds: 75,
		QueueDepth:    1,
		CacheHits:     3,
		CacheMisses:   9,
		SLOEnabled:    true,
		SLO: sloSnapshot{
			P99Objective: 0.5,
			ErrObjective: 0.05,
			Breached:     true,
			Breaches:     2,
			Windows: []sloWindowStats{
				{Window: time.Minute, Total: 120, Errors: 1, Slow: 3,
					P50: 0.0016, P95: 0.0128, P99: 0.0256,
					ErrRate: 0.0083, BurnRate: 0.67, Breached: true},
				{Window: 5 * time.Minute, Total: 480, Errors: 1, Slow: 3,
					P50: 0.0016, P95: 0.0064, P99: 0.0128,
					ErrRate: 0.0021, BurnRate: 0.17, Breached: false},
			},
			Worst: []worstRequest{
				{LatencySeconds: 0.512, TraceID: "00000000000000ff", SpanID: "00000000000000aa", AtUnixNano: 1},
			},
		},
		Incidents: 2,
	}
	var b strings.Builder
	renderStatusz(&b, d)
	want := strings.Join([]string{
		"predtop-serve status",
		"",
		"addr:       127.0.0.1:9400",
		"model dir:  /models",
		"models:     2 (generation 3)",
		"uptime:     75s",
		"",
		"slo: p99 objective 0.5s, error budget 0.05",
		"state: BREACHED (2 breach(es), 2 incident bundle(s))",
		"window     total  errors   slow      p50_s      p95_s      p99_s  err_rate    burn",
		"1m0s         120       1      3     0.0016     0.0128     0.0256    0.0083    0.67",
		"5m0s         480       1      3     0.0016     0.0064     0.0128    0.0021    0.17",
		"worst recent requests:",
		"  0.512s  trace=00000000000000ff span=00000000000000aa",
		"",
		"queue depth: 1",
		"cache:       3 hit(s), 9 miss(es)",
		"",
	}, "\n")
	if got := b.String(); got != want {
		t.Errorf("statusz page drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderStatuszDisabled: without an SLO the page says so instead of
// rendering an empty verdict table.
func TestRenderStatuszDisabled(t *testing.T) {
	var b strings.Builder
	renderStatusz(&b, statuszData{Addr: "x", ModelDir: "y"})
	if !strings.Contains(b.String(), "slo: disabled") {
		t.Errorf("disabled page missing marker:\n%s", b.String())
	}
	if strings.Contains(b.String(), "BREACHED") {
		t.Errorf("disabled page renders a verdict:\n%s", b.String())
	}
}
