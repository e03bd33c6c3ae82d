package audit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/telemetry"
)

// Server is the auditor's live export endpoint: an optional net/http
// listener serving an OpenMetrics scrape (/metrics), a liveness probe
// (/healthz), a JSON progress snapshot (/progress), a JSON SLO status
// report (/slo, fed by the cross-run observability plane), and the
// standard pprof handlers (/debug/pprof/*) for profiling a long sweep
// in flight.
//
// Every payload is rendered on read: each GET calls the source the
// caller handed NewServer, renders into a buffer and only then writes
// the buffer to the client. Nothing renders while nobody scrapes, a
// render error answers 500 rather than a truncated 200, and a slow or
// hostile scraper holds no source's lock while its socket drains.
type Server struct {
	ln  net.Listener
	srv *http.Server
	mux *http.ServeMux

	done chan struct{}
	err  error // Serve's failure; read only after done closes
}

// NewServer starts a live export endpoint on addr (e.g. ":9091" or
// "127.0.0.1:0") serving the given sources. metrics renders the
// /metrics exposition; progress returns the value /progress encodes
// as JSON; slo returns the value /slo encodes (normally a
// []obs.SLOStatus) or the error that kept it from evaluating one. The
// sources run on the handler goroutines, possibly several at once, so
// each guards whatever state it reads. A nil source serves an empty
// payload: "# EOF", {} or []. The returned server is already
// listening; Addr reports the bound address (useful with port 0).
func NewServer(addr string, metrics func(io.Writer) error, progress func() any, slo func() (any, error)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("audit: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, done: make(chan struct{})}

	var progressJSON func(io.Writer) error
	if progress != nil {
		progressJSON = renderJSON(func() (any, error) { return progress(), nil })
	}
	var sloJSON func(io.Writer) error
	if slo != nil {
		sloJSON = renderJSON(slo)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", serveRendered(telemetry.OpenMetricsContentType, "# EOF\n", metrics))
	mux.HandleFunc("/healthz", serveRendered("text/plain; charset=utf-8", "ok\n", nil))
	mux.HandleFunc("/progress", serveRendered("application/json", "{}\n", progressJSON))
	mux.HandleFunc("/slo", serveRendered("application/json", "[]\n", sloJSON))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.mux = mux
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := s.srv.Serve(ln); err != http.ErrServerClosed {
			s.err = err
		}
		close(s.done)
	}()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// serveRendered answers each request with what render writes, or with
// empty when render is nil. The body is buffered whole first, so a
// render error becomes a 500 and never a truncated 200.
func serveRendered(contentType, empty string, render func(io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		if render == nil {
			buf.WriteString(empty)
		} else if err := render(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(buf.Bytes())
	}
}

// renderJSON renders the value source as indented JSON.
func renderJSON(value func() (any, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		v, err := value()
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(b, '\n'))
		return err
	}
}

// Handle registers an additional handler on the server's mux, letting
// a service (e.g. the admission-control plane's API) share one
// listener with the observability endpoints. http.ServeMux registration
// is safe while the server is serving.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// Shutdown drains the server gracefully: the listener closes, in-flight
// requests run to completion (bounded by ctx), and the serve loop
// exits. Use this instead of Close when in-flight requests must not be
// dropped — the admission service's SIGTERM path.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.wait(s.srv.Shutdown(ctx))
}

// Close shuts the listener down and waits for the serve loop to exit.
func (s *Server) Close() error {
	return s.wait(s.srv.Close())
}

// wait waits for the serve loop to exit and returns err, or else the
// loop's own failure.
func (s *Server) wait(err error) error {
	<-s.done
	if err != nil {
		return err
	}
	return s.err
}
