package obs

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("train_batches_total").Add(3)
	r.Histogram("batch_seconds", []float64{1}).Observe(0.5)
	s, err := StartServer(context.Background(), ServerConfig{Addr: "127.0.0.1:0", Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"train_batches_total 3",
		`batch_seconds_bucket{le="+Inf"} 1`,
		"batch_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, s.URL()+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body = get(t, s.URL()+"/debug/pprof/cmdline")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline: %d (%d bytes)", code, len(body))
	}
}

// TestServerFlightRecorderEndpoint: GET /debug/flightrecorder returns the
// correlated post-mortem window as JSONL; without a recorder the route 404s.
func TestServerFlightRecorderEndpoint(t *testing.T) {
	f := NewFlightRecorder(32)
	tc := NewTraceContext(5, "srv")
	f.SetTraceContext(tc)
	for i := 0; i < 10; i++ {
		f.Note("step", "work")
	}
	s, err := StartServer(context.Background(), ServerConfig{
		Addr: "127.0.0.1:0", Registry: NewRegistry(), Flight: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s.URL()+"/debug/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("/debug/flightrecorder status %d", code)
	}
	for _, want := range []string{
		`"event":"flight_dump"`,
		`"trace_id":"` + tc.TraceID() + `"`,
		`"event":"flight_event"`,
		`"event":"flight_stacks"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/flightrecorder missing %s:\n%s", want, body)
		}
	}

	noFlight, err := StartServer(context.Background(), ServerConfig{Addr: "127.0.0.1:0", Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer noFlight.Close()
	if code, _ := get(t, noFlight.URL()+"/debug/flightrecorder"); code != http.StatusNotFound {
		t.Fatalf("recorder-less /debug/flightrecorder status %d, want 404", code)
	}
}

// TestServerScrapeDuringUpdates: /metrics must serve consistently while the
// registry is being hammered (run under -race).
func TestServerScrapeDuringUpdates(t *testing.T) {
	r := NewRegistry()
	s, err := StartServer(context.Background(), ServerConfig{Addr: "127.0.0.1:0", Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				r.Counter("c").Inc()
				r.Histogram("h", nil).Observe(0.01)
				r.Gauge("g").Set(1)
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if code, body := get(t, s.URL()+"/metrics"); code != http.StatusOK || !strings.Contains(body, "# TYPE c counter") {
			t.Fatalf("scrape %d failed: %d", i, code)
		}
	}
	close(stop)
}

// TestServerContextCancelStops: cancelling the start context must shut the
// server down without an explicit Close.
func TestServerContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := StartServer(ctx, ServerConfig{Addr: "127.0.0.1:0", Registry: NewRegistry(), ShutdownTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before cancel: %d", code)
	}
	cancel()
	if err := s.Wait(); err != nil {
		t.Fatalf("server exited with error: %v", err)
	}
	if _, err := http.Get(s.URL() + "/healthz"); err == nil {
		t.Fatal("server still serving after context cancellation")
	}
}

func TestServerDoubleCloseAndNil(t *testing.T) {
	s, err := StartServer(context.Background(), ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	// No registry, no exposition: an empty 200 would read as "nothing happened".
	if code, _ := get(t, s.URL()+"/metrics"); code != http.StatusNotFound {
		t.Fatalf("nil-registry /metrics: %d, want 404", code)
	}
	if code, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("nil-registry /healthz: %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	var nilServer *Server
	if nilServer.Addr() != "" || nilServer.URL() != "" || nilServer.Close() != nil || nilServer.Wait() != nil {
		t.Fatal("nil server methods must be inert")
	}
}

func TestServerBadAddr(t *testing.T) {
	if _, err := StartServer(context.Background(), ServerConfig{Addr: "definitely:not:an:addr"}); err == nil {
		t.Fatal("expected listen error")
	}
	if _, err := StartServer(context.Background(), ServerConfig{}); err == nil {
		t.Fatal("expected empty-addr error")
	}
}

// TestServerExtraHandlers: ServerConfig.Handlers mounts service endpoints on
// the telemetry listener, and reserved telemetry patterns cannot be shadowed.
func TestServerExtraHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	s, err := StartServer(context.Background(), ServerConfig{
		Addr:     "127.0.0.1:0",
		Registry: r,
		Handlers: map[string]http.Handler{
			"/predict": http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				io.WriteString(w, "predicted")
			}),
			"/healthz": http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				io.WriteString(w, "shadowed") // must be ignored: reserved
			}),
			"": http.NotFoundHandler(), // empty pattern must be skipped, not panic
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, body := get(t, s.URL()+"/predict"); code != http.StatusOK || body != "predicted" {
		t.Fatalf("/predict: %d %q", code, body)
	}
	if _, body := get(t, s.URL()+"/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz was shadowed by an extra handler: %q", body)
	}
	if _, body := get(t, s.URL()+"/metrics"); !strings.Contains(body, "c 1") {
		t.Fatalf("/metrics lost its registry:\n%s", body)
	}
}
