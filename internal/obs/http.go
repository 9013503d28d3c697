package obs

import (
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// Handler serves the registry over HTTP. GET /metrics (any path, in fact)
// returns the expvar-style JSON snapshot; append ?format=prometheus — or
// send an Accept header preferring text/plain — for the Prometheus text
// exposition format. Every scrape takes a fresh snapshot, so concurrent
// scrapes during a live run never see torn metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if wantPrometheus(req) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = r.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}

func wantPrometheus(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// Serve exposes the registry at /metrics on addr (host:port; port 0 picks a
// free port). It returns the bound address and a closer that stops the
// listener; in-flight scrapes finish on their own.
func Serve(addr string, r *Registry) (string, io.Closer, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	return ListenAndServe(addr, mux)
}

// ReadHeaderTimeout bounds how long a client may take to send its request
// headers; a client that never finishes them is disconnected.
const ReadHeaderTimeout = 5 * time.Second

// ListenAndServe binds addr (host:port; port 0 picks a free port) and serves
// h in the background through an http.Server with ReadHeaderTimeout. It
// returns the bound address and a closer that stops the listener; in-flight
// requests finish on their own.
func ListenAndServe(addr string, h http.Handler) (string, io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), ln, nil
}
