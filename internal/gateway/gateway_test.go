package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/serve"
)

// stubBackend is a controllable serve.Backend for gateway mechanics
// tests: fixed answer (or one made per call by ranking), settable
// epoch, call counter, optional gate, optional block-until-deadline
// mode.
type stubBackend struct {
	calls   atomic.Int64
	epoch   atomic.Uint64
	gate    chan struct{}                         // nil = never block
	stall   bool                                  // SearchContext parks until ctx expires
	ranking func(epoch uint64) []expertise.Expert // nil = one fixed expert
}

func (b *stubBackend) answer() []expertise.Expert {
	b.calls.Add(1)
	if b.gate != nil {
		<-b.gate
	}
	if b.ranking != nil {
		return b.ranking(b.epoch.Load())
	}
	return []expertise.Expert{{User: 7, Score: 3.25, TS: 1, MI: 2, RI: 3, OnTopicTweets: 4}}
}

func (b *stubBackend) EpochVector(dst []uint64) []uint64 { return append(dst[:0], b.epoch.Load()) }
func (b *stubBackend) PartialStats() (int64, int64)      { return 0, 0 }
func (b *stubBackend) Failovers() int64                  { return 0 }
func (b *stubBackend) TermSetKey([]byte) string          { return "" }
func (b *stubBackend) Recycle([]expertise.Expert)        {}

func (b *stubBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	if b.stall {
		b.calls.Add(1)
		<-ctx.Done()
		return nil, core.SearchTrace{}, ctx.Err()
	}
	return b.answer(), core.SearchTrace{Query: query}, nil
}

// newTestGateway wires backend → serve → gateway with an unlimited
// reader token; tests that need no network drive it through
// ServeHTTP.
func newTestGateway(t testing.TB, backend serve.Backend, scfg serve.Config, mut func(*Config)) *Gateway {
	t.Helper()
	cfg := Config{
		Serve:  serve.New(backend, scfg),
		Tokens: map[string]TokenConfig{"reader": {}},
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testGateway is newTestGateway behind an httptest server.
func testGateway(t *testing.T, backend serve.Backend, scfg serve.Config, mut func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	g := newTestGateway(t, backend, scfg, mut)
	hs := httptest.NewServer(g)
	t.Cleanup(hs.Close)
	return g, hs
}

func post(t *testing.T, url, token, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Drain eagerly so the keep-alive connection returns to the pool
	// (goroutine accounting depends on it); hand callers a replayable
	// body.
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, want, body)
	}
}

func TestAuthLadder(t *testing.T) {
	g, hs := testGateway(t, &stubBackend{}, serve.DefaultConfig(), nil)
	search := hs.URL + "/v1/search"
	body := `{"query":"vintage cars"}`

	resp := post(t, search, "", body, nil)
	wantStatus(t, resp, http.StatusUnauthorized)
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate challenge")
	}
	wantStatus(t, post(t, search, "nosuch", body, nil), http.StatusUnauthorized)
	// Wrong scheme is 401 too.
	req, _ := http.NewRequest(http.MethodPost, search, strings.NewReader(body))
	req.Header.Set("Authorization", "Basic cmVhZGVyOg==")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	wantStatus(t, resp2, http.StatusUnauthorized)

	wantStatus(t, post(t, search, "reader", body, nil), http.StatusOK)

	// The public port serves searches and nothing else: internal state
	// is the admin plane's, so every other path is 404 whatever the
	// token, and none of them counts as a request.
	for _, path := range []string{"/v1/admin/stats", "/v1/admin/watch", "/stats", "/metrics"} {
		for _, token := range []string{"", "nosuch", "reader"} {
			for _, method := range []string{http.MethodGet, http.MethodPost} {
				r, _ := http.NewRequest(method, hs.URL+path, nil)
				if token != "" {
					r.Header.Set("Authorization", "Bearer "+token)
				}
				resp, err := http.DefaultClient.Do(r)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Fatalf("%s %s with token %q: status %d, want 404", method, path, token, resp.StatusCode)
				}
			}
		}
	}

	st := g.Stats()
	if st.Unauthorized != 3 || st.Requests != 4 {
		t.Fatalf("auth counters: %+v", st)
	}
	checkStatsInvariant(t, g)
}

func checkStatsInvariant(t *testing.T, g *Gateway) {
	t.Helper()
	st := g.Stats()
	sum := st.OK + st.Unauthorized + st.RateLimited +
		st.QuotaExceeded + st.BadRequest + st.Shed + st.Timeout + st.BackendErrors
	if sum != st.Requests {
		t.Fatalf("stats invariant broken: %+v", st)
	}
}

func TestRateLimitAndQuota(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	_, hs := testGateway(t, &stubBackend{}, serve.DefaultConfig(), func(cfg *Config) {
		cfg.Now = clock
		cfg.Tokens = map[string]TokenConfig{
			"bursty": {Rate: 1, Burst: 2},
			"capped": {DailyQuota: 3},
		}
	})
	search := hs.URL + "/v1/search"
	body := `{"query":"vintage cars"}`

	// Token bucket: burst of 2 passes, the third in the same instant
	// trips with a Retry-After.
	wantStatus(t, post(t, search, "bursty", body, nil), http.StatusOK)
	wantStatus(t, post(t, search, "bursty", body, nil), http.StatusOK)
	resp := post(t, search, "bursty", body, nil)
	wantStatus(t, resp, http.StatusTooManyRequests)
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("rate-limit Retry-After = %q, want \"1\"", ra)
	}
	// One second later one token has refilled.
	now = now.Add(time.Second)
	wantStatus(t, post(t, search, "bursty", body, nil), http.StatusOK)

	// Daily quota: three pass, the fourth names the next UTC midnight.
	for i := 0; i < 3; i++ {
		wantStatus(t, post(t, search, "capped", body, nil), http.StatusOK)
	}
	resp = post(t, search, "capped", body, nil)
	wantStatus(t, resp, http.StatusTooManyRequests)
	if ra := resp.Header.Get("Retry-After"); ra != fmt.Sprint(12*3600-1) {
		t.Fatalf("quota Retry-After = %q, want seconds to UTC midnight (%d)", ra, 12*3600-1)
	}
	// The window resets at midnight.
	now = now.Add(13 * time.Hour)
	wantStatus(t, post(t, search, "capped", body, nil), http.StatusOK)
}

func TestBadRequests(t *testing.T) {
	g, hs := testGateway(t, &stubBackend{}, serve.DefaultConfig(), nil)
	search := hs.URL + "/v1/search"

	// Wrong method.
	req, _ := http.NewRequest(http.MethodGet, search, nil)
	req.Header.Set("Authorization", "Bearer reader")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantStatus(t, resp, http.StatusMethodNotAllowed)

	wantStatus(t, post(t, search, "reader", `{nope`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search, "reader", `{"query":"   "}`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search, "reader", `{"query":"`+strings.Repeat("a ", 64)+`b"}`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search, "reader", `{"query":"ok"}`,
		map[string]string{"X-Budget-Ms": "banana"}), http.StatusBadRequest)
	// One spelling: no query string (not even the budget, which is the
	// header's) and no "terms" body, which decodes to an empty query.
	wantStatus(t, post(t, search+"?budget_ms=-5", "reader", `{"query":"ok"}`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search+"?budget_ms=5", "reader", `{"query":"ok"}`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search+"?baseline=1", "reader", `{"query":"ok"}`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search, "reader", `{"terms":["a"]}`, nil), http.StatusBadRequest)
	// The body is one JSON object and nothing else...
	wantStatus(t, post(t, search, "reader", `{"query":"ok"} trailing`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search, "reader", `{"query":"ok"}{"query":"two"}`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search, "reader", "{\"query\":\"ok\"}\r\n \t", nil), http.StatusOK)
	// ...of at most 1 MiB: past that the refusal is about size, not syntax.
	wantStatus(t, post(t, search, "reader", `{"query":"`+strings.Repeat("a", maxBody)+`"}`, nil), http.StatusRequestEntityTooLarge)
	wantStatus(t, post(t, search, "reader", `{"query":"ok","pad":"`+strings.Repeat("a", maxBody-30)+`"}`, nil), http.StatusOK)

	if st := g.Stats(); st.BadRequest != 12 || st.OK != 2 {
		t.Fatalf("BadRequest = %d, OK = %d, want 12 and 2: %+v", st.BadRequest, st.OK, st)
	}
	checkStatsInvariant(t, g)
}

// TestSearchCanonicalClass pins the cache key through the front door:
// two spellings of one token set are one backend computation and one
// answer.
func TestSearchCanonicalClass(t *testing.T) {
	backend := &stubBackend{}
	_, hs := testGateway(t, backend, serve.DefaultConfig(), nil)
	search := hs.URL + "/v1/search"

	experts := func(body string) []byte {
		t.Helper()
		resp := post(t, search, "reader", body, nil)
		wantStatus(t, resp, http.StatusOK)
		var out searchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out.Experts) == 0 {
			t.Fatal("no experts returned")
		}
		b, _ := json.Marshal(out.Experts)
		return b
	}
	if a, b := experts(`{"query":"cars vintage"}`), experts(`{"query":"vintage cars"}`); !bytes.Equal(a, b) {
		t.Fatal("permuted query diverged")
	}
	if calls := backend.calls.Load(); calls != 1 {
		t.Fatalf("backend ran %d times for one canonical class, want 1", calls)
	}
}

// TestBudgetExpiry504 pins the gateway half of deadline propagation: a
// stalled backend turns into 504 within roughly the client's budget,
// and the handler goroutine is released (counted before/after).
func TestBudgetExpiry504(t *testing.T) {
	backend := &stubBackend{stall: true}
	g, hs := testGateway(t, backend, serve.DefaultConfig(), nil)

	// Warm the keep-alive connection first so its read/write loops are
	// part of the baseline, then count.
	wantStatus(t, post(t, hs.URL+"/v1/search", "", "{}", nil), http.StatusUnauthorized)
	before := countGoroutines()
	start := time.Now()
	resp := post(t, hs.URL+"/v1/search", "reader", `{"query":"slow"}`,
		map[string]string{"X-Budget-Ms": "100"})
	elapsed := time.Since(start)
	wantStatus(t, resp, http.StatusGatewayTimeout)
	if elapsed > 400*time.Millisecond {
		t.Fatalf("504 took %v, want ~100ms budget (≤2× plus slack)", elapsed)
	}
	waitGoroutinesSettle(t, before)
	if st := g.Stats(); st.Timeout != 1 {
		t.Fatalf("Timeout = %d, want 1: %+v", st.Timeout, st)
	}
	checkStatsInvariant(t, g)
}

// TestShedKeepsWarmHits pins the gateway half of priority shedding:
// with the serving layer saturated, cold misses get 503 + Retry-After
// while warm cache hits still answer 200.
func TestShedKeepsWarmHits(t *testing.T) {
	backend := &stubBackend{}
	scfg := serve.DefaultConfig()
	scfg.MaxInflightMisses = 1
	g, hs := testGateway(t, backend, scfg, nil)
	search := hs.URL + "/v1/search"

	wantStatus(t, post(t, search, "reader", `{"query":"warm"}`, nil), http.StatusOK)
	backend.gate = make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		resp := post(t, search, "reader", `{"query":"cold leader"}`, nil)
		wantStatus(t, resp, http.StatusOK)
	}()
	for backend.calls.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	resp := post(t, search, "reader", `{"query":"cold shed"}`, nil)
	wantStatus(t, resp, http.StatusServiceUnavailable)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	wantStatus(t, post(t, search, "reader", `{"query":"warm"}`, nil), http.StatusOK)
	close(backend.gate)
	<-leaderDone
	if st := g.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1: %+v", st.Shed, st)
	}
	checkStatsInvariant(t, g)
}

// countGoroutines samples runtime.NumGoroutine after a GC settle so
// freshly-exited goroutines don't inflate the baseline.
func countGoroutines() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitGoroutinesSettle fails the test if the goroutine count has not
// returned to (at or below) the baseline within a generous window —
// the hand-rolled leak check the acceptance bar asks for.
func waitGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		// Idle keep-alive connections hold read loops on both sides;
		// they are pooling, not leaks — drop them before counting.
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", n, baseline)
}

func TestParseTokens(t *testing.T) {
	got, err := ParseTokens("dev, reader:50:100:10000, free:::, slow:2")
	if err != nil {
		t.Fatal(err)
	}
	if d := got["dev"]; d != (TokenConfig{}) {
		t.Fatalf("dev = %+v", d)
	}
	if r := got["reader"]; r != (TokenConfig{Rate: 50, Burst: 100, DailyQuota: 10000}) {
		t.Fatalf("reader = %+v", r)
	}
	if f := got["free"]; f != (TokenConfig{}) {
		t.Fatalf("free = %+v", f)
	}
	if s := got["slow"]; s != (TokenConfig{Rate: 2}) {
		t.Fatalf("slow = %+v", s)
	}
	for _, bad := range []string{
		"", ":50::", "a:b::", "a::b:", "a:::b", "a::::", "a::::admin", "a::::root", "a:::,a:::", "a,a", "a:1:2:3:admin:extra",
		"a:Inf", "a:NaN",
	} {
		if _, err := ParseTokens(bad); err == nil {
			t.Fatalf("ParseTokens(%q) accepted", bad)
		}
	}
	// A finite rate past every int still gets a positive default burst:
	// the token's first request is admitted.
	huge, err := ParseTokens("a:1e19")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := newAuthTable(huge).tokens["a"].admit(time.Now()); !ok {
		t.Fatal("a 1e19-rate token's first request was refused")
	}
}
