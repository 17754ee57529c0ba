package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strconv"
	"strings"
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
// done — the client hung up or AdminServer.Close. A frame's
// slow_queries holds only the traces recorded since the previous frame;
// the first holds none.
func (cfg *AdminConfig) watch(w reply, interval time.Duration, done <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	w.head("200 OK", "application/x-ndjson")
	enc := json.NewEncoder(w.Writer)
	_, seen := cfg.SlowLog.Since(0)
	var slow []QueryTrace
	for {
		if err := enc.Encode(cfg.body(slow)); err != nil || w.Flush() != nil {
			return
		}
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		slow, seen = cfg.SlowLog.Since(seen)
	}
}

// The responder's limits: a request is its head alone (request line and
// header lines up to the blank line), at most maxHead bytes, read within
// headTimeout of the accept.
const (
	maxHead     = 8 << 10
	headTimeout = 5 * time.Second
)

// AdminServer is one listening admin plane: a GET-only HTTP/1.1
// responder over net. It answers one request per connection and then
// closes it (Connection: close, the body running to the close); it
// never reads a request body, answers any other method 405 and a head
// over maxHead 431, and closes a connection whose head has not arrived
// within headTimeout. Close stops it.
type AdminServer struct {
	ln       net.Listener
	cfg      AdminConfig
	headWait time.Duration // headTimeout; tests shorten it
	// ctx ends at Close, which closes every open connection with it.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup // the accept loop and every connection
	once sync.Once
}

// StartAdmin binds addr (":0" picks a free port — read it back with
// Addr) and serves the admin endpoints in a background goroutine until
// Close:
//
//	/metrics       flat text key-value dump of the registry
//	/healthz       200 "ok" or 503 with the health error
//	/stats         JSON: stats snapshot + registry snapshot + slow queries
//	/watch         the /stats body once per ?interval= (default 500ms),
//	               as NDJSON, each frame with only the newer slow queries
//	/debug/pprof/  the runtime profiles: the index, cmdline,
//	               profile?seconds=, trace?seconds= and every named
//	               profile with debug= (and gc= for heap)
func StartAdmin(addr string, cfg AdminConfig) (*AdminServer, error) {
	return startAdmin(addr, cfg, headTimeout)
}

// startAdmin is StartAdmin with the head deadline as a parameter.
func startAdmin(addr string, cfg AdminConfig, headWait time.Duration) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a := &AdminServer{ln: ln, cfg: cfg, headWait: headWait}
	a.ctx, a.stop = context.WithCancel(context.Background())
	a.wg.Add(1)
	go a.accept()
	return a, nil
}

// Addr returns the bound listen address.
func (a *AdminServer) Addr() net.Addr { return a.ln.Addr() }

// Close stops the listener, closes open admin connections (a /watch
// stream or a profile in progress ends with its connection) and returns
// once every connection's goroutine has. Idempotent.
func (a *AdminServer) Close() error {
	var err error
	a.once.Do(func() {
		a.stop()
		err = a.ln.Close()
		a.wg.Wait()
	})
	return err
}

// accept serves each connection on its own goroutine until Close. A
// failed accept that Close did not cause (out of descriptors) is
// retried after a pause rather than ending the plane.
func (a *AdminServer) accept() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			if a.ctx.Err() != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.serve(conn)
		}()
	}
}

// serve answers the one request conn carries and closes it. Everything
// it reads from conn — the head, then the hang-up watch of a streaming
// answer — goes through one limit, so no connection gets more than
// maxHead bytes read from it.
func (a *AdminServer) serve(conn net.Conn) {
	defer conn.Close()
	unhook := context.AfterFunc(a.ctx, func() { conn.Close() })
	defer unhook()
	in := &io.LimitedReader{R: conn, N: maxHead}
	conn.SetReadDeadline(time.Now().Add(a.headWait))
	head, err := readHead(in)
	w := reply{conn: conn, Writer: writers.Get().(*bufio.Writer)}
	w.Reset(conn)
	defer func() {
		w.Flush()
		w.Reset(nil)
		writers.Put(w.Writer)
	}()
	switch {
	case errors.Is(err, errHeadTooLong):
		w.fail("431 Request Header Fields Too Large", "request head over 8 KiB")
		return
	case err != nil:
		return // stalled past the deadline, hung up mid-head, or closed
	}
	conn.SetReadDeadline(time.Time{})
	method, target, ok := requestLine(head)
	switch {
	case !ok:
		w.fail("400 Bad Request", "malformed request line")
	case method != "GET":
		w.fail("405 Method Not Allowed", "only GET is served")
	default:
		path, rawQuery, _ := strings.Cut(target, "?")
		q, _ := url.ParseQuery(rawQuery) // a malformed pair is dropped
		a.route(w, path, q, in)
	}
}

// writers recycles the answers' 4 KiB buffers across connections: a
// benchmark scrapes a process's heap profile and counters inside its
// allocation window, so a scrape should cost little beyond its body.
var writers = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

// errHeadTooLong is readHead's answer to a head that has not ended
// within maxHead bytes.
var errHeadTooLong = errors.New("obs: request head over maxHead")

// readHead reads r up to the blank line (CRLF CRLF) that ends a request
// head and returns the head before it. It reads at most maxHead bytes.
func readHead(r io.Reader) ([]byte, error) {
	buf := make([]byte, 0, 512)
	for {
		n, err := r.Read(buf[len(buf):min(cap(buf), maxHead)])
		buf = buf[:len(buf)+n]
		switch end := bytes.Index(buf, []byte("\r\n\r\n")); {
		case end >= 0:
			return buf[:end], nil
		case len(buf) >= maxHead:
			return nil, errHeadTooLong
		case err != nil:
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
	}
}

// requestLine splits a head's first line, "METHOD /target HTTP/1.x",
// and reports whether it has that shape.
func requestLine(head []byte) (method, target string, ok bool) {
	line, _, _ := bytes.Cut(head, []byte("\r\n"))
	method, rest, ok1 := strings.Cut(string(line), " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	ok = ok1 && ok2 && method != "" && strings.HasPrefix(target, "/") &&
		len(proto) == len("HTTP/1.1") && strings.HasPrefix(proto, "HTTP/1.")
	return method, target, ok
}

// Content types of the answers.
const (
	textPlain   = "text/plain; charset=utf-8"
	octetStream = "application/octet-stream"
)

// reply writes one answer: a status line, Content-Type, Allow: GET and
// Connection: close, then a body that runs to the close — no
// Content-Length, no chunking. Nothing reaches the connection before
// the 4 KiB buffer fills or Flush, so until then fail can still take
// the answer back.
type reply struct {
	conn net.Conn
	*bufio.Writer
}

// head buffers the status line ("200 OK") and the headers.
func (w reply) head(status, ctype string) {
	w.WriteString("HTTP/1.1 " + status + "\r\nContent-Type: " + ctype + "\r\nAllow: GET\r\nConnection: close\r\n\r\n")
}

// fail answers status with msg as plain text, discarding whatever was
// buffered but not yet sent.
func (w reply) fail(status, msg string) {
	w.Reset(w.conn)
	w.head(status, textPlain)
	w.WriteString(msg + "\n")
}

// route answers a GET of path. in is what remains of the connection's
// read limit; a streaming answer watches it for the client's hang-up.
func (a *AdminServer) route(w reply, path string, q url.Values, in io.Reader) {
	cfg := &a.cfg
	switch path {
	case "/metrics":
		w.head("200 OK", textPlain)
		w.Write(cfg.Registry.WriteMetrics(nil))
	case "/healthz":
		if cfg.Health != nil {
			if err := cfg.Health(); err != nil {
				w.fail("503 Service Unavailable", "unhealthy: "+err.Error())
				return
			}
		}
		w.head("200 OK", textPlain)
		w.WriteString("ok\n")
	case "/stats":
		w.head("200 OK", "application/json")
		enc := json.NewEncoder(w.Writer)
		enc.SetIndent("", "  ")
		// Encode writes nothing unless it succeeds, so the head is
		// still in the buffer when it fails.
		if err := enc.Encode(cfg.body(cfg.SlowLog.Snapshot())); err != nil {
			w.fail("500 Internal Server Error", err.Error())
		}
	case "/watch":
		cfg.watch(w, watchInterval(q.Get("interval")), a.hangup(in))
	default:
		name, ok := strings.CutPrefix(path, "/debug/pprof/")
		if !ok {
			w.fail("404 Not Found", "404 page not found")
			return
		}
		a.pprof(w, name, q, in)
	}
}

// hangup returns a channel that closes at Close or when the client
// hangs up. After its head a client sends nothing, so a read returns
// only when the client closes its side (or sends more than its one
// request, or the read limit is spent — either ends the answer too).
func (a *AdminServer) hangup(in io.Reader) <-chan struct{} {
	ctx, cancel := context.WithCancel(a.ctx)
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		in.Read(make([]byte, 1))
		cancel()
	}()
	return ctx.Done()
}

// pprof serves /debug/pprof/<name>: the index, cmdline, a CPU profile
// or execution trace of ?seconds=, or a named runtime profile.
func (a *AdminServer) pprof(w reply, name string, q url.Values, in io.Reader) {
	switch name {
	case "":
		pprofIndex(w)
	case "cmdline":
		w.head("200 OK", textPlain)
		w.WriteString(strings.Join(os.Args, "\x00"))
	case "profile":
		sec, err := strconv.ParseInt(q.Get("seconds"), 10, 64)
		if sec <= 0 || err != nil {
			sec = 30
		}
		w.head("200 OK", octetStream)
		if err := pprof.StartCPUProfile(w.Writer); err != nil {
			w.fail("500 Internal Server Error", "Could not enable CPU profiling: "+err.Error())
			return
		}
		sleep(a.hangup(in), time.Duration(sec)*time.Second)
		pprof.StopCPUProfile()
	case "trace":
		sec, err := strconv.ParseFloat(q.Get("seconds"), 64)
		if sec <= 0 || err != nil {
			sec = 1
		}
		w.head("200 OK", octetStream)
		if err := trace.Start(w.Writer); err != nil {
			w.fail("500 Internal Server Error", "Could not enable tracing: "+err.Error())
			return
		}
		sleep(a.hangup(in), time.Duration(sec*float64(time.Second)))
		trace.Stop()
	default:
		p := pprof.Lookup(name)
		switch {
		case p == nil:
			w.fail("404 Not Found", "Unknown profile")
			return
		case q.Has("seconds"):
			w.fail("400 Bad Request", "delta profiles are not served: take two and compare them with go tool pprof -diff_base")
			return
		}
		if gc, _ := strconv.Atoi(q.Get("gc")); gc > 0 && name == "heap" {
			runtime.GC()
		}
		debug, _ := strconv.Atoi(q.Get("debug"))
		ctype := octetStream
		if debug != 0 {
			ctype = textPlain
		}
		w.head("200 OK", ctype)
		p.WriteTo(w.Writer, debug)
	}
}

// sleep waits d or until done closes.
func sleep(done <-chan struct{}, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	}
}

// pprofIndex lists the runtime's profiles, with their counts, and the
// endpoints beside them.
func pprofIndex(w reply) {
	w.head("200 OK", "text/html; charset=utf-8")
	w.WriteString("<html>\n<head><title>/debug/pprof/</title></head>\n<body>\n/debug/pprof/\n" +
		"<p>Set debug=1 as a query parameter to export in legacy text format</p>\n" +
		"<table>\n<thead><td>Count</td><td>Profile</td></thead>\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(w, "<tr><td>%d</td><td><a href='%s?debug=1'>%[2]s</a></td></tr>\n", p.Count(), p.Name())
	}
	for _, n := range []string{"cmdline", "profile", "trace"} {
		fmt.Fprintf(w, "<tr><td></td><td><a href='%s'>%[1]s</a></td></tr>\n", n)
	}
	w.WriteString("</table>\n<a href='goroutine?debug=2'>full goroutine stack dump</a>\n</body>\n</html>\n")
}
