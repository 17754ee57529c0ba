package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/race"
	"repro/internal/serve"
)

// smuggled is a whole search request: the payload an oversize body is
// made of, so that any byte of it the server parsed as the next request
// on the connection would come back as a second response.
const smuggled = "POST /v1/search HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer reader\r\n" +
	"Content-Length: 16\r\n\r\n{\"query\":\"ok\"}\n\n"

// rawRequest opens a connection to hs, sends head and returns a reader
// of the answers; the body, if any, goes on in the background, since a
// server that refuses it may stop reading.
func rawRequest(t *testing.T, hs *httptest.Server, head string, body []byte) *bufio.Reader {
	t.Helper()
	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := io.WriteString(conn, head); err != nil {
		t.Fatal(err)
	}
	if body != nil {
		go conn.Write(body) // fails once the server has closed; that is the point
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	return bufio.NewReader(conn)
}

// TestOversizeBodyRefused pins the front door's size cap over a real
// server: a body declared over 1 MiB is refused before any of it is
// read — a client that never sends it does not hold a handler — and one
// that turns out over 1 MiB while being read is refused too. Either
// way the answer is 413 naming the cap, the connection closes with it,
// and no byte of the refused body is ever parsed as a request.
func TestOversizeBodyRefused(t *testing.T) {
	padding := bytes.Repeat([]byte(smuggled), 2*maxBody/len(smuggled))
	var chunked bytes.Buffer
	for rest := padding[:maxBody+64<<10]; len(rest) > 0; {
		n := min(len(rest), 32<<10)
		fmt.Fprintf(&chunked, "%x\r\n%s\r\n", n, rest[:n])
		rest = rest[n:]
	}
	chunked.WriteString("0\r\n\r\n" + smuggled)
	head := "POST /v1/search HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer reader\r\n"
	for _, c := range []struct {
		name string
		head string
		body []byte
	}{
		{"declared 2 MiB, never sent", head + "Content-Length: 2097152\r\n\r\n", nil},
		{"declared 2 MiB, sent", head + "Content-Length: 2097152\r\n\r\n", padding},
		{"chunked over 1 MiB", head + "Transfer-Encoding: chunked\r\n\r\n", chunked.Bytes()},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, hs := testGateway(t, &stubBackend{}, serve.DefaultConfig(), nil)
			br := rawRequest(t, hs, c.head, c.body)
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("no answer: %v", err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
				t.Fatalf("status %d, close %v; want 413 and a closing connection", resp.StatusCode, resp.Close)
			}
			var body errorBody
			if err := json.Unmarshal(msg, &body); err != nil || !strings.Contains(body.Error, "1 MiB") {
				t.Fatalf("413 body %q does not name the 1 MiB cap", msg)
			}
			if next, err := http.ReadResponse(br, nil); err == nil {
				t.Fatalf("a second answer, %d, on the refused connection", next.StatusCode)
			}
			if st := g.Stats(); st.Requests != 1 || st.BadRequest != 1 {
				t.Fatalf("the gateway saw %+v, want the one refused request", st)
			}
		})
	}
}

// keepAlive is a client that allocates nothing per request: one raw
// connection, a prepared request, and a fixed buffer the response is
// read into and checked in place.
type keepAlive struct {
	conn net.Conn
	req  []byte
	buf  [16 << 10]byte
}

var (
	statusOK      = []byte("HTTP/1.1 200 OK\r\n")
	contentLength = []byte("\r\nContent-Length: ")
	headEnd       = []byte("\r\n\r\n")
)

// do sends the request and reads one 200 response whole.
func (k *keepAlive) do(t *testing.T) {
	if _, err := k.conn.Write(k.req); err != nil {
		t.Fatal(err)
	}
	n, end, want := 0, -1, -1
	for want < 0 || n < want {
		m, err := k.conn.Read(k.buf[n:])
		if err != nil {
			t.Fatal(err)
		}
		n += m
		if end < 0 {
			if end = bytes.Index(k.buf[:n], headEnd); end < 0 {
				continue
			}
			i := bytes.Index(k.buf[:end], contentLength)
			if !bytes.HasPrefix(k.buf[:n], statusOK) || i < 0 {
				t.Fatalf("not a 200 with a length:\n%s", k.buf[:n])
			}
			length := 0
			for _, c := range k.buf[i+len(contentLength) : end] {
				if c < '0' || c > '9' {
					break
				}
				length = 10*length + int(c-'0')
			}
			want = end + len(headEnd) + length
		}
	}
}

// mallocsPerRequest is the process's heap allocations per request over
// runs keep-alive round trips to hs, after a warm-up.
func mallocsPerRequest(t *testing.T, hs *httptest.Server, req []byte, runs int) float64 {
	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	k := &keepAlive{conn: conn, req: req}
	for i := 0; i < 100; i++ {
		k.do(t)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		k.do(t)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestWarmHitAllocsThroughNetHTTP pins what a warm hit costs through a
// real http.Server, net/http's own allocations included, against a
// reference handler that does the least a handler can: read the body,
// close it, set Content-Type and write the same answer once. The
// gateway may cost 2 more: the decoded query and the stub backend's
// copy of the canonical key it has no table for. A handler that leaves the
// body open (net/http then drains it through a fresh limiter) or wraps
// it in http.MaxBytesReader pays one more for each.
func TestWarmHitAllocsThroughNetHTTP(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	body := `{"query":"vintage cars"}`
	_, gw := testGateway(t, &stubBackend{}, serve.DefaultConfig(), nil)
	answer := referenceBody(t, "vintage cars", (&stubBackend{}).answer())
	var sink [64]byte
	ref := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for {
			if _, err := r.Body.Read(sink[:]); err != nil {
				break
			}
		}
		r.Body.Close()
		w.Header()["Content-Type"] = jsonContentType
		w.Write(answer)
	}))
	t.Cleanup(ref.Close)
	req := []byte("POST /v1/search HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer reader\r\n" +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body)

	const runs = 2000
	// The lower of two rounds each: a GC that empties net/http's pools
	// mid-round costs a few allocations nobody's handler made.
	gateway := min(mallocsPerRequest(t, gw, req, runs), mallocsPerRequest(t, gw, req, runs))
	reference := min(mallocsPerRequest(t, ref, req, runs), mallocsPerRequest(t, ref, req, runs))
	t.Logf("allocations per warm hit: gateway %.2f, reference handler %.2f", gateway, reference)
	if extra := gateway - reference; extra > 2.5 {
		t.Fatalf("a warm hit allocates %.2f times through net/http, %.2f more than the reference handler's %.2f; want ≤ 2",
			gateway, extra, reference)
	}
}
