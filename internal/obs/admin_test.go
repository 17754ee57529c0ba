package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// get performs one request against the admin mux and returns status and
// body.
func get(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestAdminMetricsGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve_queries").Add(2)
	r.Histogram("serve_request_ns").Observe(100)
	mux := NewAdminMux(AdminConfig{Registry: r})
	code, body := get(t, mux, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	want := "serve_queries 2\n" +
		"serve_request_ns_count 1\n" +
		"serve_request_ns_max 128\n" +
		"serve_request_ns_p50 128\n" +
		"serve_request_ns_p99 128\n"
	if body != want {
		t.Fatalf("/metrics:\n got %q\nwant %q", body, want)
	}
}

func TestAdminMetricsEmptyRegistry(t *testing.T) {
	// A nil registry still answers — the plane must not 500 before
	// instrumentation is wired.
	mux := NewAdminMux(AdminConfig{})
	if code, body := get(t, mux, "/metrics"); code != http.StatusOK || body != "" {
		t.Fatalf("/metrics on empty plane: %d %q", code, body)
	}
}

func TestAdminHealthz(t *testing.T) {
	var fail error
	mux := NewAdminMux(AdminConfig{Health: func() error { return fail }})

	code, body := get(t, mux, "/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthy probe: %d %q", code, body)
	}

	// A backend error must flip the probe to 503 with the error text.
	fail = errors.New("shard 1 unreachable")
	code, body = get(t, mux, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy probe status = %d, want 503", code)
	}
	if !strings.Contains(body, "shard 1 unreachable") {
		t.Fatalf("unhealthy probe body = %q", body)
	}

	// Recovery flips it back.
	fail = nil
	if code, _ = get(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatalf("recovered probe status = %d", code)
	}
}

func TestAdminStatsJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries").Add(7)
	sl := NewSlowLog(4)
	sl.Record(QueryTrace{Query: "storm", TotalNS: 123, Outcome: OutcomeMiss, Start: time.Unix(0, 0)})
	type fakeStats struct {
		Segments int `json:"segments"`
	}
	mux := NewAdminMux(AdminConfig{
		Registry: r,
		SlowLog:  sl,
		Stats:    func() any { return fakeStats{Segments: 3} },
	})
	code, body := get(t, mux, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status = %d", code)
	}
	var payload struct {
		Stats   fakeStats    `json:"stats"`
		Metrics []Metric     `json:"metrics"`
		Slow    []QueryTrace `json:"slow_queries"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/stats is not JSON: %v\n%s", err, body)
	}
	if payload.Stats.Segments != 3 {
		t.Errorf("stats section = %+v", payload.Stats)
	}
	if len(payload.Metrics) != 1 || payload.Metrics[0].Name != "queries" || payload.Metrics[0].Value != 7 {
		t.Errorf("metrics section = %+v", payload.Metrics)
	}
	if len(payload.Slow) != 1 || payload.Slow[0].Query != "storm" || payload.Slow[0].Outcome != OutcomeMiss {
		t.Errorf("slow_queries section = %+v", payload.Slow)
	}
}

func TestAdminPprof(t *testing.T) {
	mux := NewAdminMux(AdminConfig{})
	code, body := get(t, mux, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d %q", code, body)
	}
}

// TestStartAdminServes exercises the real listener end to end: bind :0,
// scrape over TCP, close idempotently.
func TestStartAdminServes(t *testing.T) {
	r := NewRegistry()
	r.Counter("up").Inc()
	adm, err := StartAdmin("127.0.0.1:0", AdminConfig{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()

	resp, err := http.Get("http://" + adm.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: %v status=%d", err, resp.StatusCode)
	}
	if got := string(body); got != "up 1\n" {
		t.Fatalf("scraped %q", got)
	}

	if err := adm.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := adm.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := http.Get("http://" + adm.Addr().String() + "/metrics"); err == nil {
		t.Fatal("scrape succeeded after Close")
	}
}

// TestWatchInterval pins how /watch reads ?interval=: a Go duration,
// floored at minWatchTick; anything that does not parse (an
// overflowing count included) or is not positive leaves watchTick.
func TestWatchInterval(t *testing.T) {
	for raw, want := range map[string]time.Duration{
		"":            watchTick,
		"1ns":         minWatchTick,
		"20ms":        20 * time.Millisecond,
		"2s":          2 * time.Second,
		"0":           watchTick,
		"-1s":         watchTick,
		"banana":      watchTick,
		"20":          watchTick,
		"9999999999h": watchTick,
	} {
		if got := watchInterval(raw); got != want {
			t.Errorf("watchInterval(%q) = %v, want %v", raw, got, want)
		}
	}
}

// TestAdminWatchStreams drives /watch over a real listener: frames
// arrive on ?interval=20ms, each the /stats body, a counter bumped
// between frames shows up in a later frame's metrics, and
// AdminServer.Close ends the stream.
func TestAdminWatchStreams(t *testing.T) {
	r := NewRegistry()
	queries := r.Counter("queries")
	adm, err := StartAdmin("127.0.0.1:0", AdminConfig{
		Registry: r,
		Stats:    func() any { return map[string]int{"segments": 3} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()

	resp, err := http.Get("http://" + adm.Addr().String() + "/watch?interval=20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/watch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/watch Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	readFrame := func() statsBody {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("watch stream ended early: %v", sc.Err())
		}
		var f statsBody
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		return f
	}
	queriesIn := func(f statsBody) int64 {
		for _, m := range f.Metrics {
			if m.Name == "queries" {
				return m.Value
			}
		}
		t.Fatalf("frame lacks the queries counter: %+v", f.Metrics)
		return 0
	}
	first := readFrame()
	if stats, _ := first.Stats.(map[string]any); stats["segments"] != 3.0 {
		t.Fatalf("first frame's stats section = %+v", first.Stats)
	}
	if n := queriesIn(first); n != 0 {
		t.Fatalf("first frame counts %d queries", n)
	}
	queries.Inc()
	start := time.Now()
	for queriesIn(readFrame()) != 1 {
		if time.Since(start) > 5*time.Second {
			t.Fatal("no frame showed the counter bump")
		}
	}

	adm.Close()
	ended := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not end on AdminServer.Close")
	}
}
