package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

func reader(raw string) *httpConn {
	return &httpConn{r: bufio.NewReader(strings.NewReader(raw))}
}

func TestRequestBytesIsValidHTTP(t *testing.T) {
	body := []byte(`{"query":"vintage cars"}`)
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(requestBytes(body))))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != http.MethodPost || req.URL.Path != "/v1/search" {
		t.Errorf("request line: %s %s", req.Method, req.URL.Path)
	}
	if got := req.Header.Get("Authorization"); got != "Bearer "+token {
		t.Errorf("Authorization = %q", got)
	}
	got, err := io.ReadAll(req.Body)
	if err != nil || !bytes.Equal(got, body) {
		t.Errorf("body = %q (%v), want %q", got, err, body)
	}
}

func TestReadResponseContentLength(t *testing.T) {
	// Two pipelined responses on one stream: the reader must stop
	// exactly at the end of each body.
	h := reader("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: x\r\nContent-Length: 12\r\n\r\n{\"a\":[1,2]}\n" +
		"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\nRetry-After: 1\r\n\r\n{}")
	status, body, err := h.readResponse()
	if err != nil || status != 200 || string(body) != "{\"a\":[1,2]}\n" {
		t.Fatalf("first response: %d %q %v", status, body, err)
	}
	status, body, err = h.readResponse()
	if err != nil || status != 429 || string(body) != "{}" {
		t.Fatalf("second response: %d %q %v", status, body, err)
	}
	if _, _, err := h.readResponse(); err != io.EOF {
		t.Errorf("end of stream: %v, want io.EOF", err)
	}
}

func TestReadResponseChunked(t *testing.T) {
	big := strings.Repeat("x", 3000)
	h := reader("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"800\r\n" + big[:2048] + "\r\n3b8\r\n" + big[2048:] + "\r\n0\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
	status, body, err := h.readResponse()
	if err != nil || status != 200 || string(body) != big {
		t.Fatalf("chunked response: %d, %d bytes, %v", status, len(body), err)
	}
	if status, body, err = h.readResponse(); err != nil || status != 200 || len(body) != 0 {
		t.Fatalf("response after the chunked one: %d %q %v", status, body, err)
	}
}

func TestReadResponseRejectsGarbage(t *testing.T) {
	for name, raw := range map[string]string{
		"not http":           "SSH-2.0-OpenSSH\r\n\r\n",
		"no framing":         "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nbody",
		"bad length":         "HTTP/1.1 200 OK\r\nContent-Length: twelve\r\n\r\n",
		"bad chunk size":     "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"truncated body":     "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"truncated head":     "HTTP/1.1 200 OK\r\nContent-Le",
		"short status":       "HTTP/1.1\r\n\r\n",
		"non-numeric status": "HTTP/1.1 abc OK\r\n\r\n",
	} {
		if _, _, err := reader(raw).readResponse(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
