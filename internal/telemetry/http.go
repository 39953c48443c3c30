package telemetry

import (
	"net/http"
	"net/http/pprof"
	"time"
)

// The read and idle limits of every GreFar daemon's HTTP server. A client
// that trickles its request headers is disconnected after
// HTTPReadHeaderTimeout; HTTPReadTimeout bounds the whole request read and
// leaves room for a maximal (8 MiB) JSONL submit over a slow link; idle
// keep-alive connections close after HTTPIdleTimeout. There is no write
// timeout: a pprof CPU profile streams for as long as it was asked to run.
const (
	HTTPReadHeaderTimeout = 5 * time.Second
	HTTPReadTimeout       = 2 * time.Minute
	HTTPIdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the server a daemon mounts h on, with the read and
// idle limits above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: HTTPReadHeaderTimeout,
		ReadTimeout:       HTTPReadTimeout,
		IdleTimeout:       HTTPIdleTimeout,
	}
}

// ServeHTTP renders the registry in Prometheus text exposition format,
// making *Registry an http.Handler for /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// MuxOptions tunes NewMux.
type MuxOptions struct {
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints on a scrape port are an operational choice.
	EnablePprof bool
	// Healthy, when non-nil, gates /healthz: it returns 503 while Healthy
	// reports false. Nil means always healthy.
	Healthy func() bool
}

// NewMux builds the observability endpoint of a GreFar binary: /metrics
// (Prometheus text format), /healthz, and optionally /debug/pprof/.
func NewMux(reg *Registry, opts MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opts.Healthy != nil && !opts.Healthy() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("unhealthy\n"))
			return
		}
		_, _ = w.Write([]byte("ok\n"))
	})
	if opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
