package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/serve"
)

// recordingBackend is a stubBackend that remembers the last query an
// e# search handed it. Requests are driven one at a time, and serve
// calls the backend on the request's goroutine.
type recordingBackend struct {
	stubBackend
	last string
}

func (b *recordingBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	b.last = query
	return b.stubBackend.SearchContext(ctx, query)
}

// take returns the last query and forgets it.
func (b *recordingBackend) take() string {
	q := b.last
	b.last = ""
	return q
}

// decodeCheck drives one gateway, request after request, and holds
// every answer to json.Unmarshal's verdict on the body. Neither side
// caches, so every accepted query reaches its backend.
type decodeCheck struct {
	p       *inproc
	backend *recordingBackend
	// oracle is a serve.Server of its own, asked directly for the query
	// Unmarshal decoded: what the gateway must answer, and what its
	// backend must receive, with no request body in between.
	oracle        *serve.Server
	oracleBackend *recordingBackend
}

func newDecodeCheck(t testing.TB) *decodeCheck {
	t.Helper()
	scfg := serve.DefaultConfig()
	scfg.CacheSize = 0
	dc := &decodeCheck{backend: &recordingBackend{}, oracleBackend: &recordingBackend{}}
	g := newTestGateway(t, dc.backend, scfg, nil)
	dc.p = newInproc(t, g, "/v1/search")
	dc.oracle = serve.New(dc.oracleBackend, scfg)
	return dc
}

// errorJSON is the body fail sends for msg.
func errorJSON(t testing.TB, msg string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(errorBody{Error: msg}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// check sends body and compares the status, the response bytes and the
// query the backend received with what json.Unmarshal of the body
// implies.
func (dc *decodeCheck) check(t testing.TB, body string) {
	t.Helper()
	var (
		wantStatus = http.StatusBadRequest
		wantBody   []byte
		wantQuery  string
		req        searchRequest
	)
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		wantBody = errorJSON(t, "malformed JSON body: "+err.Error())
	} else {
		experts, _, err := dc.oracle.Answer(context.Background(), req.Query, time.Now().Add(time.Minute))
		if err != nil {
			wantBody = errorJSON(t, err.Error())
		} else {
			wantStatus, wantBody = http.StatusOK, referenceBody(t, req.Query, experts)
		}
		wantQuery = dc.oracleBackend.take()
	}
	status, got := dc.p.do([]byte(body))
	if status != wantStatus || !bytes.Equal(got, wantBody) {
		t.Fatalf("body %.80q: status %d, response %s\nwant %d, %s", body, status, got, wantStatus, wantBody)
	}
	if q := dc.backend.take(); q != wantQuery {
		t.Fatalf("body %.80q: backend asked for %q, want %q", body, q, wantQuery)
	}
}

// TestDecodeMatchesUnmarshal pins the pooled decoder to json.Unmarshal,
// across requests: one gateway takes a sequence of bodies, forwards and
// then backwards, so whatever a decoder keeps from one request — unread
// input, an error, a grown buffer — is in play for the next. Every
// answer must be Unmarshal's: the same 400 text for a body it refuses,
// the same query handed to the backend for one it accepts.
func TestDecodeMatchesUnmarshal(t *testing.T) {
	bodies := []string{
		`{"query":"a"} x`,
		`{"query":"a"}}`,
		`{"query":"a"}{"query":"b"}`,
		" \r\n\t{\"query\":\"lead and trail\"} \n\t ",
		`{"query":5}`,
		`{"query":"after a type error"}`,
		`{"QUERY":"x"}`,
		`{"query":"first","query":"second"}`,
		`{"terms":["a"],"terms":["b","c"]}`,
		"{\"query\":\"caf\xe9 \xff bar\"}",
		`null`,
		`[]`,
		`{"query":"unterminated`,
		``,
		`{"pad":"` + strings.Repeat("x", 100<<10) + `","query":"big body"}`,
		`{"query":"small"}`,
		`{"terms":["small","again"]}`,
	}
	dc := newDecodeCheck(t)
	for _, body := range bodies {
		dc.check(t, body)
	}
	for i := len(bodies) - 1; i >= 0; i-- {
		dc.check(t, bodies[i])
	}
}
