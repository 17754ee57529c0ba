package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serveAdmin starts an admin plane on a free loopback port and closes it
// when the test ends.
func serveAdmin(t *testing.T, cfg AdminConfig) *AdminServer {
	t.Helper()
	adm, err := StartAdmin("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { adm.Close() })
	return adm
}

// get performs one GET against the plane and returns status and body.
func get(t *testing.T, adm *AdminServer, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + adm.Addr().String() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminMetricsGolden(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("serve_queries", func() int64 { return 2 })
	r.Histogram("serve_request_ns").Observe(100)
	adm := serveAdmin(t, AdminConfig{Registry: r})
	code, body := get(t, adm, "/metrics")
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
	adm := serveAdmin(t, AdminConfig{})
	if code, body := get(t, adm, "/metrics"); code != http.StatusOK || body != "" {
		t.Fatalf("/metrics on empty plane: %d %q", code, body)
	}
}

func TestAdminHealthz(t *testing.T) {
	var fail atomic.Pointer[error]
	adm := serveAdmin(t, AdminConfig{Health: func() error {
		if err := fail.Load(); err != nil {
			return *err
		}
		return nil
	}})

	code, body := get(t, adm, "/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthy probe: %d %q", code, body)
	}

	// A backend error must flip the probe to 503 with the error text.
	down := errors.New("shard 1 unreachable")
	fail.Store(&down)
	code, body = get(t, adm, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy probe status = %d, want 503", code)
	}
	if !strings.Contains(body, "shard 1 unreachable") {
		t.Fatalf("unhealthy probe body = %q", body)
	}

	// Recovery flips it back.
	fail.Store(nil)
	if code, _ = get(t, adm, "/healthz"); code != http.StatusOK {
		t.Fatalf("recovered probe status = %d", code)
	}
}

func TestAdminStatsJSON(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("queries", func() int64 { return 7 })
	sl := NewSlowLog(4)
	sl.Record(QueryTrace{Query: "storm", TotalNS: 123, Outcome: OutcomeMiss, Start: time.Unix(0, 0)})
	type fakeStats struct {
		Segments int `json:"segments"`
	}
	adm := serveAdmin(t, AdminConfig{
		Registry: r,
		SlowLog:  sl,
		Stats:    func() any { return fakeStats{Segments: 3} },
	})
	code, body := get(t, adm, "/stats")
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

	// A stats section encoding/json cannot marshal is a 500, not a
	// 200 with half a document.
	bad := serveAdmin(t, AdminConfig{Stats: func() any { return func() {} }})
	if code, body := get(t, bad, "/stats"); code != http.StatusInternalServerError {
		t.Fatalf("/stats with an unmarshalable section: %d %q", code, body)
	}
}

// TestAdminPprof walks the profile endpoints: the index, cmdline, a
// named profile in text and binary form, heap after a GC, the CPU
// profile and the execution trace, and the refusals.
func TestAdminPprof(t *testing.T) {
	adm := serveAdmin(t, AdminConfig{})
	for _, c := range []struct {
		path string
		code int
		has  string
	}{
		{"/debug/pprof/", 200, "goroutine?debug=1"},
		{"/debug/pprof/cmdline", 200, "obs.test"},
		{"/debug/pprof/goroutine?debug=1", 200, "goroutine profile: total"},
		{"/debug/pprof/goroutine?debug=2", 200, "goroutine "},
		{"/debug/pprof/heap?debug=1&gc=1", 200, "# runtime.MemStats"},
		{"/debug/pprof/allocs", 200, ""},
		{"/debug/pprof/profile?seconds=1", 200, ""},
		{"/debug/pprof/trace?seconds=0.05", 200, "go 1."},
		{"/debug/pprof/heap?seconds=5", 400, "delta profiles"},
		{"/debug/pprof/nonesuch", 404, "Unknown profile"},
		{"/debug/pprof", 404, ""},
		{"/nonesuch", 404, ""},
	} {
		code, body := get(t, adm, c.path)
		if code != c.code || !strings.Contains(body, c.has) {
			t.Errorf("GET %s: %d, want %d with %q; body starts %q", c.path, code, c.code, c.has, body[:min(len(body), 80)])
		}
		if c.code == 200 && c.has == "" && len(body) == 0 {
			t.Errorf("GET %s: empty profile", c.path)
		}
	}
}

// TestStartAdminServes exercises the real listener end to end: bind :0,
// scrape over TCP, close idempotently.
func TestStartAdminServes(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("up", func() int64 { return 1 })
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
	if !resp.Close || resp.Header.Get("Content-Type") != "text/plain; charset=utf-8" {
		t.Fatalf("answer head: close=%v %v", resp.Close, resp.Header)
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

// TestAdminRefusesNonGET: every method but GET is 405 with Allow: GET,
// and a request with a body is answered without reading it.
func TestAdminRefusesNonGET(t *testing.T) {
	adm := serveAdmin(t, AdminConfig{})
	url := "http://" + adm.Addr().String() + "/metrics"
	for _, method := range []string{http.MethodPost, http.MethodHead, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, url, strings.NewReader("x=1"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
			t.Errorf("%s /metrics: %d Allow=%q, want 405 Allow=GET", method, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
}

// rawExchange dials the plane, writes req and returns everything the
// plane sends until it closes the connection.
func rawExchange(t *testing.T, adm *AdminServer, req string) string {
	t.Helper()
	conn, err := net.Dial("tcp", adm.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read answer to %.40q: %v", req, err)
	}
	return string(out)
}

// TestAdminRefusesLongHead: a head that has not ended within maxHead
// bytes is 431; a malformed request
// line is 400.
func TestAdminRefusesLongHead(t *testing.T) {
	adm := serveAdmin(t, AdminConfig{})
	long := "GET /metrics HTTP/1.1\r\nX-Pad: "
	long += strings.Repeat("a", maxHead-len(long))
	if out := rawExchange(t, adm, long); !strings.HasPrefix(out, "HTTP/1.1 431 ") {
		t.Fatalf("over-long head answered %.60q", out)
	}
	for req, status := range map[string]string{
		"GET /metrics\r\n\r\n":                  "400",
		"GET metrics HTTP/1.1\r\n\r\n":          "400",
		"GET /metrics HTTP/2.0\r\n\r\n":         "400",
		"GET  /metrics HTTP/1.1\r\n\r\n":        "400",
		"GET /healthz HTTP/1.0\r\nA: b\r\n\r\n": "200",
	} {
		if out := rawExchange(t, adm, req); !strings.HasPrefix(out, "HTTP/1.1 "+status+" ") {
			t.Errorf("%q answered %.60q, want %s", req, out, status)
		}
	}
}

// TestAdminStalledHeadClosed: a connection whose head does not arrive
// within the head deadline is closed without an answer.
func TestAdminStalledHeadClosed(t *testing.T) {
	const wait = 100 * time.Millisecond
	adm, err := startAdmin("127.0.0.1:0", AdminConfig{}, wait)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	start := time.Now()
	out := rawExchange(t, adm, "GET /metrics HTTP/1.1\r\nHost: x\r\n")
	if took := time.Since(start); out != "" || took < wait || took > 5*time.Second {
		t.Fatalf("stalled head: answered %q after %v, want a close after %v", out, took, wait)
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

// watching reports whether any goroutine is inside a /watch stream.
func watching() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*AdminConfig).watch"))
}

// TestAdminWatchStreams drives /watch over a real listener: frames
// arrive on ?interval=20ms, each the /stats body, a counter bumped
// between frames shows up in a later frame's metrics, and
// AdminServer.Close ends the stream and the goroutine serving it.
func TestAdminWatchStreams(t *testing.T) {
	r := NewRegistry()
	var queries atomic.Int64
	r.RegisterFunc("queries", queries.Load)
	adm := serveAdmin(t, AdminConfig{
		Registry: r,
		Stats:    func() any { return map[string]int{"segments": 3} },
	})

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
	queries.Add(1)
	start := time.Now()
	for queriesIn(readFrame()) != 1 {
		if time.Since(start) > 5*time.Second {
			t.Fatal("no frame showed the counter bump")
		}
	}

	adm.Close()
	if watching() {
		t.Fatal("a /watch goroutine outlived AdminServer.Close")
	}
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

// TestAdminWatchEndsOnHangup: a client that hangs up ends its /watch
// stream at once, not at the next frame's failed write — the interval
// here is an hour.
func TestAdminWatchEndsOnHangup(t *testing.T) {
	adm := serveAdmin(t, AdminConfig{})
	resp, err := http.Get("http://" + adm.Addr().String() + "/watch?interval=1h")
	if err != nil {
		t.Fatal(err)
	}
	if !bufio.NewScanner(resp.Body).Scan() {
		t.Fatal("no first frame")
	}
	if !watching() {
		t.Fatal("no goroutine serves the open /watch")
	}
	resp.Body.Close()
	for deadline := time.Now().Add(5 * time.Second); watching(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("/watch still streaming 5s after the client hung up")
		}
	}
}

// fuzzConn is a net.Conn whose client sends in and then hangs up. It
// counts the bytes the responder reads and keeps what it writes.
type fuzzConn struct {
	mu   sync.Mutex
	in   []byte
	read int
	out  bytes.Buffer
}

func (c *fuzzConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.read == len(c.in) {
		return 0, io.EOF
	}
	n := copy(p, c.in[c.read:])
	c.read += n
	return n, nil
}

func (c *fuzzConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzAdminRequest feeds arbitrary bytes to the responder as one
// connection's request: it never panics, never reads more than maxHead
// bytes, and either answers with a well-formed HTTP/1.1 response that
// closes the connection or — only when no complete head arrived before
// the client hung up — closes without a word.
func FuzzAdminRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /healthz HTTP/1.0\r\n\r\n",
		"GET /stats HTTP/1.1\r\n\r\n",
		"GET /watch?interval=10ms HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/ HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/goroutine?debug=1 HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/heap?debug=1&gc=1 HTTP/1.1\r\n\r\n",
		"POST /metrics HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"GET /metrics HTTP/1.1\r\nX: " + strings.Repeat("a", maxHead),
		"GET /metrics HTTP/1.1\r\n",
		"\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	r := NewRegistry()
	r.RegisterFunc("up", func() int64 { return 1 })
	a := &AdminServer{cfg: AdminConfig{Registry: r, SlowLog: NewSlowLog(4), Stats: func() any { return 1 }}}
	a.ctx, a.stop = context.WithCancel(context.Background())
	f.Fuzz(func(t *testing.T, in []byte) {
		c := &fuzzConn{in: in}
		a.serve(c)
		a.wg.Wait()
		if c.read > maxHead {
			t.Fatalf("read %d bytes, over the %d-byte head bound", c.read, maxHead)
		}
		if c.out.Len() == 0 {
			head := in[:min(len(in), maxHead)]
			if bytes.Contains(head, []byte("\r\n\r\n")) || len(in) >= maxHead {
				t.Fatalf("no answer to %q", in)
			}
			return
		}
		resp, err := http.ReadResponse(bufio.NewReader(&c.out), nil)
		if err != nil {
			t.Fatalf("answer to %q is not a response: %v", in, err)
		}
		resp.Body.Close()
		if resp.ProtoMajor != 1 || resp.ProtoMinor != 1 || !resp.Close || resp.Header.Get("Content-Type") == "" {
			t.Fatalf("answer to %q: %s close=%v %v", in, resp.Proto, resp.Close, resp.Header)
		}
	})
}
