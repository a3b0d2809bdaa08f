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

// TestServerEndpoints: the debug listener answers /healthz and the stdlib
// profiler pages, and has no /metrics of its own — the exposition is the
// serving daemon's handler.
func TestServerEndpoints(t *testing.T) {
	s, err := StartServer(context.Background(), ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s.URL()+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	code, body = get(t, s.URL()+"/debug/pprof/cmdline")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline: %d (%d bytes)", code, len(body))
	}
	if code, _ := get(t, s.URL()+"/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics: %d, want 404", code)
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
	s, err := StartServer(context.Background(), ServerConfig{Addr: "127.0.0.1:0", Flight: f})
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

	noFlight, err := StartServer(context.Background(), ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer noFlight.Close()
	if code, _ := get(t, noFlight.URL()+"/debug/flightrecorder"); code != http.StatusNotFound {
		t.Fatalf("recorder-less /debug/flightrecorder status %d, want 404", code)
	}
}

// TestServerContextCancelStops: cancelling the start context must shut the
// server down without an explicit Close.
func TestServerContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := StartServer(ctx, ServerConfig{Addr: "127.0.0.1:0", ShutdownTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before cancel: %d", code)
	}
	cancel()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(s.URL() + "/healthz")
		if err != nil {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("server still serving after context cancellation")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("server exited with error: %v", err)
	}
}

func TestServerDoubleCloseAndNil(t *testing.T) {
	s, err := StartServer(context.Background(), ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	var nilServer *Server
	if nilServer.Addr() != "" || nilServer.URL() != "" || nilServer.Close() != nil {
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

// TestServerExtraHandlers: ServerConfig.Handlers mounts a service's endpoints
// beside the debug ones on one listener.
func TestServerExtraHandlers(t *testing.T) {
	s, err := StartServer(context.Background(), ServerConfig{
		Addr: "127.0.0.1:0",
		Handlers: map[string]http.Handler{
			"/predict": http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				io.WriteString(w, "predicted")
			}),
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
		t.Fatalf("/healthz: %q", body)
	}
}
