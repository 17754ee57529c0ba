package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// AdminConfig wires an admin HTTP surface over one registry.
type AdminConfig struct {
	// Registry backs /metrics and the "metrics" section of /stats and
	// /watch. Nil serves an empty metric set (the endpoints still
	// answer).
	Registry *Registry
	// SlowLog, when non-nil, adds the "slow_queries" section to /stats
	// and /watch.
	SlowLog *SlowLog
	// Health drives /healthz: nil means always healthy; a non-nil
	// error flips the endpoint to 503 with the error text — a shard
	// backend failing is exactly the state an orchestrator's probe
	// should see.
	Health func() error
	// Stats, when non-nil, supplies the "stats" section of /stats and
	// /watch — typically a serve.Stats or ingest.IndexStats snapshot;
	// anything encoding/json can marshal.
	Stats func() any
}

// statsBody is the /stats document and one line of the /watch stream.
type statsBody struct {
	Stats   any          `json:"stats,omitempty"`
	Metrics []Metric     `json:"metrics"`
	Slow    []QueryTrace `json:"slow_queries,omitempty"`
}

// body snapshots the stats and the registry around the given traces.
func (cfg *AdminConfig) body(slow []QueryTrace) statsBody {
	b := statsBody{Metrics: cfg.Registry.Snapshot(), Slow: slow}
	if b.Metrics == nil {
		b.Metrics = []Metric{}
	}
	if cfg.Stats != nil {
		b.Stats = cfg.Stats()
	}
	return b
}

// watchTick is the /watch frame interval when the client names none;
// minWatchTick floors a client-named one.
const (
	watchTick    = 500 * time.Millisecond
	minWatchTick = 10 * time.Millisecond
)

// watchInterval reads /watch's ?interval= (a Go duration: "2s",
// "250ms"). A value that does not parse — an overflowing one included —
// or is not positive leaves watchTick.
func watchInterval(raw string) time.Duration {
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return watchTick
	}
	return max(d, minWatchTick)
}

// watch streams one statsBody per tick as newline-delimited JSON until
// the client hangs up or AdminServer.Close closes the connection — the
// request context ends on both. A frame's slow_queries holds only the
// traces recorded since the previous frame; the first holds none.
func (cfg *AdminConfig) watch(w http.ResponseWriter, req *http.Request) {
	ticker := time.NewTicker(watchInterval(req.URL.Query().Get("interval")))
	defer ticker.Stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	_, seen := cfg.SlowLog.Since(0)
	var slow []QueryTrace
	for {
		if err := enc.Encode(cfg.body(slow)); err != nil || rc.Flush() != nil {
			return
		}
		select {
		case <-req.Context().Done():
			return
		case <-ticker.C:
		}
		slow, seen = cfg.SlowLog.Since(seen)
	}
}

// NewAdminMux builds the admin endpoints on a fresh mux:
//
//	/metrics       flat text key-value dump of the registry
//	/healthz       200 "ok" or 503 with the health error
//	/stats         JSON: stats snapshot + registry snapshot + slow queries
//	/watch         the /stats body once per ?interval= (default 500ms),
//	               as NDJSON, each frame with only the newer slow queries
//	/debug/pprof/  the standard runtime profiles
//
// The mux is standalone (nothing registers on http.DefaultServeMux),
// so two servers in one process — a shard's admin plane and a test's —
// never collide.
func NewAdminMux(cfg AdminConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(cfg.Registry.WriteMetrics(nil))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Health != nil {
			if err := cfg.Health(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "unhealthy: %v\n", err)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cfg.body(cfg.SlowLog.Snapshot())); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/watch", cfg.watch)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// AdminServer is one listening admin plane; Close stops it.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	closed bool
}

// StartAdmin binds addr (":0" picks a free port — read it back with
// Addr) and serves the admin endpoints in a background goroutine until
// Close.
func StartAdmin(addr string, cfg AdminConfig) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a := &AdminServer{
		ln: ln,
		srv: &http.Server{
			Handler: NewAdminMux(cfg),
			// An admin plane must not let a stuck scraper pin goroutines;
			// pprof's CPU profile endpoint needs headroom, so only reads
			// are bounded tightly.
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go a.srv.Serve(ln)
	return a, nil
}

// Addr returns the bound listen address.
func (a *AdminServer) Addr() net.Addr { return a.ln.Addr() }

// Close stops the listener and closes open admin connections.
// Idempotent.
func (a *AdminServer) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	return a.srv.Close()
}
