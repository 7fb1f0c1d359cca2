// Package debugserver is the opt-in debug server of the CLIs (their
// -debug-addr flag): a plain net/http server exposing
//
//	/metrics      Prometheus text exposition of an obs.Registry
//	/healthz      liveness probe ("ok", or 503 + state via SetHealthProbe)
//	/debug/vars   expvar JSON (includes the registry snapshot)
//	/debug/pprof  the standard pprof handlers
//
// Everything is stdlib; nothing here runs unless Serve is called. It
// lives apart from package obs so that only the binaries that serve it
// link the HTTP stack, not every package that records a metric.
package debugserver

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"youtopia/internal/obs"
)

var publishOnce sync.Once

// healthProbe, when set, decides what /healthz reports. It is
// process-wide (like the expvar publication) so the CLIs can wire the
// repository's failure state in after the server is already up.
var healthProbe atomic.Pointer[func() (state string, healthy bool)]

// SetHealthProbe wires a liveness callback into /healthz: while the
// probe reports healthy (or no probe is set) the endpoint answers 200
// "ok"; when it reports unhealthy the endpoint answers 503 with the
// probe's state name — how a supervisor notices a repository that has
// degraded to read-only or poisoned its log. Pass nil to restore the
// unconditional "ok".
func SetHealthProbe(f func() (state string, healthy bool)) {
	if f == nil {
		healthProbe.Store(nil)
		return
	}
	healthProbe.Store(&f)
}

// Handler builds the debug mux for reg (obs.Default when nil).
func Handler(reg *obs.Registry) http.Handler {
	if reg == nil {
		reg = obs.Default
	}
	// expvar.Publish panics on duplicate names, so the registry is
	// published process-wide once, bound to the first handler's
	// registry (in practice the Default).
	publishOnce.Do(func() {
		expvar.Publish("youtopia_metrics", expvar.Func(func() any {
			return reg.Snapshot()
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if probe := healthProbe.Load(); probe != nil {
			if state, healthy := (*probe)(); !healthy {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, state)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running debug server.
type Server struct {
	// Addr is the bound listen address (resolves ":0" requests).
	Addr string
	srv  *http.Server
	lis  net.Listener
}

// Serve starts the debug server on addr (e.g. "127.0.0.1:9180" or
// ":0" for an ephemeral port) serving reg (obs.Default when nil). It
// returns once the listener is bound; requests are served in the
// background until Close.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debugserver: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(reg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(lis) }()
	return &Server{Addr: lis.Addr().String(), srv: srv, lis: lis}, nil
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
