package gateway

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// adminSnapshot is the one-shot /v1/admin/stats body and the cumulative
// section of every watch frame.
type adminSnapshot struct {
	Serve   serve.Stats `json:"serve"`
	Gateway Stats       `json:"gateway"`
}

func (g *Gateway) handleAdminStats(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	if !g.authenticate(w, r, true) {
		return
	}
	g.ok.Add(1)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(adminSnapshot{Serve: g.srv.Stats(), Gateway: g.Stats()})
}

// watchFrame is one line of the /v1/admin/watch stream: the cumulative
// snapshots plus what moved since the previous frame — the query-count
// delta and the slow-log entries recorded in the interval. The first
// frame is the baseline (DeltaQueries 0, no slow entries).
type watchFrame struct {
	Serve        serve.Stats      `json:"serve"`
	Gateway      Stats            `json:"gateway"`
	DeltaQueries int64            `json:"delta_queries"`
	Slow         []obs.QueryTrace `json:"slow,omitempty"`
}

// handleAdminWatch streams newline-delimited JSON frames until the
// client disconnects or the gateway closes, one frame per tick. The
// tick is watchTick unless ?interval_ms names another — shorter or
// longer, floored at minWatchTick; a value that is not a positive
// integer is ignored. An operator tailing a hot deploy wants seconds, a
// test wants milliseconds.
func (g *Gateway) handleAdminWatch(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	if !g.authenticate(w, r, true) {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		g.backendErr.Add(1)
		fail(w, http.StatusInternalServerError, "streaming unsupported by this connection", 0)
		return
	}
	interval := watchTick
	if raw := r.URL.Query().Get("interval_ms"); raw != "" {
		if ms, err := strconv.ParseInt(raw, 10, 64); err == nil && ms > 0 {
			interval = millis(ms, minWatchTick, math.MaxInt64)
		}
	}
	g.ok.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	slow := g.srv.SlowLog()
	var lastQueries, lastSlow int64
	if slow != nil {
		lastSlow = slow.Total()
	}
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	first := true
	for {
		frame := watchFrame{Serve: g.srv.Stats(), Gateway: g.Stats()}
		if !first {
			frame.DeltaQueries = frame.Serve.Queries - lastQueries
		}
		lastQueries = frame.Serve.Queries
		if slow != nil {
			total := slow.Total()
			if n := total - lastSlow; n > 0 && !first {
				// Snapshot is newest-first; the n entries recorded since
				// the last frame are its prefix (or all of it, if the ring
				// overwrote more than it holds).
				entries := slow.Snapshot()
				if int64(len(entries)) > n {
					entries = entries[:n]
				}
				frame.Slow = entries
			}
			lastSlow = total
		}
		first = false
		if err := enc.Encode(frame); err != nil {
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-g.closed:
			return
		case <-ticker.C:
		}
	}
}
