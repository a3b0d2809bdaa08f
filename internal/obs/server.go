package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServerConfig configures a telemetry HTTP server (see StartServer).
type ServerConfig struct {
	// Addr is the TCP listen address, e.g. ":9090" or "127.0.0.1:0" (port 0
	// picks a free port — read it back from Server.Addr).
	Addr string
	// Registry backs GET /metrics. Nil serves 404: a process without a
	// registry has no exposition, and an empty 200 would read as "nothing
	// happened".
	Registry *Registry
	// Flight backs GET /debug/flightrecorder: the recorder's current window
	// (plus goroutine stacks) streamed as JSONL. Nil serves 404.
	Flight *FlightRecorder
	// Handlers mounts additional patterns onto the telemetry mux, so a
	// service (e.g. the predtop-serve daemon) can expose its own endpoints
	// next to /metrics and /debug/pprof/ on one listener. Patterns that
	// collide with the built-in telemetry endpoints are ignored — the
	// telemetry contract always wins.
	Handlers map[string]http.Handler
	// ShutdownTimeout bounds the graceful-shutdown drain once the context is
	// cancelled or Close is called (default 5s); connections still open after
	// the deadline are dropped.
	ShutdownTimeout time.Duration
}

// Server is a live telemetry endpoint: GET /metrics serves the registry (when
// there is one) in Prometheus text exposition format, GET /healthz answers
// "ok", and the stdlib profiling handlers are mounted under /debug/pprof/. It
// exists so a long predtop-train or predtop-plan run can be inspected while it
// runs instead of only after it exits.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	timeout time.Duration
	done    chan struct{}
	err     error // Serve's terminal error, readable after done closes
}

// StartServer binds cfg.Addr and serves telemetry until ctx is cancelled or
// Close is called, whichever comes first; either path drains connections for
// at most cfg.ShutdownTimeout. The returned Server is already serving.
func StartServer(ctx context.Context, cfg ServerConfig) (*Server, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("obs: StartServer needs a listen address")
	}
	if cfg.ShutdownTimeout <= 0 {
		cfg.ShutdownTimeout = 5 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", cfg.Addr, err)
	}

	mux := http.NewServeMux()
	if cfg.Registry != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			cfg.Registry.WriteProm(w)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Flight == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		cfg.Flight.Dump(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	reserved := map[string]bool{
		"/metrics": true, "/healthz": true, "/debug/flightrecorder": true,
		"/debug/pprof/": true, "/debug/pprof/cmdline": true,
		"/debug/pprof/profile": true, "/debug/pprof/symbol": true,
		"/debug/pprof/trace": true,
	}
	for pattern, h := range cfg.Handlers {
		if pattern == "" || h == nil || reserved[pattern] {
			continue
		}
		mux.Handle(pattern, h)
	}

	s := &Server{
		ln:      ln,
		srv:     &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		timeout: cfg.ShutdownTimeout,
		done:    make(chan struct{}),
	}
	serveCtx, cancel := context.WithCancel(ctx)
	go func() {
		defer close(s.done)
		err := s.srv.Serve(ln)
		if err != nil && err != http.ErrServerClosed {
			s.err = err
		}
		cancel() // Serve failed on its own: stop the watcher too
	}()
	go func() {
		<-serveCtx.Done()
		s.shutdown()
	}()
	return s, nil
}

// shutdown drains within the configured timeout, then force-closes.
func (s *Server) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
}

// Addr returns the bound listen address (with the real port when the config
// asked for :0). Empty on a nil server.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns "http://<addr>" for the bound address, convenient for logs.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close stops the server (graceful within the shutdown timeout) and waits
// for the serve loop to exit, returning its terminal error if any. Safe to
// call more than once and on a nil server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.shutdown()
	<-s.done
	return s.err
}

// Wait blocks until the server has stopped (context cancellation, Close, or
// a serve error) and returns the terminal error if any. Nil-safe.
func (s *Server) Wait() error {
	if s == nil {
		return nil
	}
	<-s.done
	return s.err
}
