package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// The load generator is deliberately not net/http: its client spends
// 0.1–0.2 ms of CPU per request, more than the gateway itself on a cache
// hit, and on a 2-vCPU box that CPU is taken from the system under
// test. Requests are serialised once per pool query; each client owns
// one persistent connection, writes the bytes, and reads the response
// by its framing.

// token is the gateway's default unlimited admin token (-tokens default
// "dev::::admin"), so no rate limit or quota ever refuses a request.
const token = "dev"

// requestBytes pre-serialises POST /v1/search around one JSON body.
func requestBytes(body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST /v1/search HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer %s\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n", token, len(body))
	b.Write(body)
	return b.Bytes()
}

// httpConn is one persistent HTTP/1.1 connection.
type httpConn struct {
	c    net.Conn
	r    *bufio.Reader
	body []byte // reused response body buffer
}

// ioTimeout bounds one request round trip; the slowest legitimate
// search (cold disk tier under load) is tens of milliseconds.
const ioTimeout = 20 * time.Second

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, r: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (h *httpConn) Close() error { return h.c.Close() }

// do sends one pre-serialised request and returns the response status
// and body. The body aliases an internal buffer valid until the next
// call.
func (h *httpConn) do(req []byte) (status int, body []byte, err error) {
	if err := h.c.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	return h.readResponse()
}

var (
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
)

// hasPrefixFold is a case-insensitive, allocation-free bytes.HasPrefix.
func hasPrefixFold(line, prefix []byte) bool {
	return len(line) >= len(prefix) && bytes.EqualFold(line[:len(prefix)], prefix)
}

// readResponse parses one HTTP/1.1 response: status line, headers, and
// a body framed by Content-Length or chunked encoding (net/http
// switches to chunks once a handler writes more than its 2 KiB
// buffer).
func (h *httpConn) readResponse() (int, []byte, error) {
	line, err := h.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = h.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 { // bare CRLF ends the headers
			break
		}
		switch {
		case hasPrefixFold(line, hdrContentLength):
			v := bytes.TrimSpace(line[len(hdrContentLength):])
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", v)
			}
		case hasPrefixFold(line, hdrChunked):
			chunked = true
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		for {
			line, err = h.r.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
			if err != nil {
				return 0, nil, fmt.Errorf("malformed chunk size %q", line)
			}
			if n == 0 {
				// No trailers are ever sent; consume the final CRLF.
				if _, err := h.r.Discard(2); err != nil {
					return 0, nil, err
				}
				break
			}
			if err := h.readN(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := h.r.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		if err := h.readN(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response carries neither Content-Length nor chunked framing")
	}
	return status, h.body, nil
}

// readN appends exactly n bytes of the stream to the body buffer.
func (h *httpConn) readN(n int) error {
	off := len(h.body)
	if cap(h.body) < off+n {
		grown := make([]byte, off, max(2*cap(h.body), off+n))
		copy(grown, h.body)
		h.body = grown
	}
	h.body = h.body[:off+n]
	_, err := io.ReadFull(h.r, h.body[off:])
	return err
}
