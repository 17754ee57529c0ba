package gateway

import (
	"bufio"
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
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
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
func (b *stubBackend) ReshardStats() (shard.MigrationStats, bool) {
	return shard.MigrationStats{}, false
}
func (b *stubBackend) TermSetKey(canon string) string { return canon }

func (b *stubBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	if b.stall {
		b.calls.Add(1)
		<-ctx.Done()
		return nil, core.SearchTrace{}, ctx.Err()
	}
	return b.answer(), core.SearchTrace{Query: query}, nil
}

func (b *stubBackend) SearchBaselineContext(ctx context.Context, query string) ([]expertise.Expert, core.MissingShards, error) {
	if b.stall {
		b.calls.Add(1)
		<-ctx.Done()
		return nil, 0, ctx.Err()
	}
	return b.answer(), 0, nil
}

// newTestGateway wires backend → serve → gateway with an unlimited
// reader token and an admin token; tests that need no network drive it
// through ServeHTTP.
func newTestGateway(t testing.TB, backend serve.Backend, scfg serve.Config, mut func(*Config)) *Gateway {
	t.Helper()
	cfg := Config{
		Serve: serve.New(backend, scfg),
		Tokens: map[string]TokenConfig{
			"reader": {},
			"ops":    {Admin: true},
		},
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
	t.Cleanup(g.Close)
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

	// Admin routes: reader is 403, ops passes; both need a token.
	adminReq := func(token string) *http.Response {
		r, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/admin/stats", nil)
		if token != "" {
			r.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	wantStatus(t, adminReq(""), http.StatusUnauthorized)
	wantStatus(t, adminReq("reader"), http.StatusForbidden)
	resp3 := adminReq("ops")
	wantStatus(t, resp3, http.StatusOK)
	var snap adminSnapshot
	if err := json.NewDecoder(resp3.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Serve.Queries == 0 || snap.Gateway.Requests == 0 {
		t.Fatalf("admin snapshot empty: %+v", snap)
	}

	st := g.Stats()
	if st.Unauthorized != 4 || st.Forbidden != 1 {
		t.Fatalf("auth counters: %+v", st)
	}
	checkStatsInvariant(t, g)
}

func checkStatsInvariant(t *testing.T, g *Gateway) {
	t.Helper()
	st := g.Stats()
	sum := st.OK + st.Unauthorized + st.Forbidden + st.RateLimited +
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
	scfg := serve.DefaultConfig()
	scfg.MaxQueryTerms = 4
	g, hs := testGateway(t, &stubBackend{}, scfg, nil)
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
	wantStatus(t, post(t, search, "reader", `{"query":"a b c d e"}`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search, "reader", `{"query":"ok"}`,
		map[string]string{"X-Budget-Ms": "banana"}), http.StatusBadRequest)
	wantStatus(t, post(t, search+"?budget_ms=-5", "reader", `{"query":"ok"}`, nil), http.StatusBadRequest)
	// The body is one JSON object and nothing else...
	wantStatus(t, post(t, search, "reader", `{"query":"ok"} trailing`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search, "reader", `{"query":"ok"}{"query":"two"}`, nil), http.StatusBadRequest)
	wantStatus(t, post(t, search, "reader", "{\"query\":\"ok\"}\r\n \t", nil), http.StatusOK)
	// ...of at most 1 MiB: past that the refusal is about size, not syntax.
	wantStatus(t, post(t, search, "reader", `{"query":"`+strings.Repeat("a", maxBody)+`"}`, nil), http.StatusRequestEntityTooLarge)
	wantStatus(t, post(t, search, "reader", `{"query":"ok","pad":"`+strings.Repeat("a", maxBody-30)+`"}`, nil), http.StatusOK)

	if st := g.Stats(); st.BadRequest != 9 || st.OK != 2 {
		t.Fatalf("BadRequest = %d, OK = %d, want 9 and 2: %+v", st.BadRequest, st.OK, st)
	}
	checkStatsInvariant(t, g)
}

func TestSearchTermsAndBaseline(t *testing.T) {
	backend := &stubBackend{}
	_, hs := testGateway(t, backend, serve.DefaultConfig(), nil)
	search := hs.URL + "/v1/search"

	decode := func(resp *http.Response) searchResponse {
		t.Helper()
		wantStatus(t, resp, http.StatusOK)
		var out searchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	byQuery := decode(post(t, search, "reader", `{"query":"vintage cars"}`, nil))
	byTerms := decode(post(t, search, "reader", `{"terms":["cars","vintage"]}`, nil))
	if len(byQuery.Experts) == 0 {
		t.Fatal("no experts returned")
	}
	a, _ := json.Marshal(byQuery.Experts)
	b, _ := json.Marshal(byTerms.Experts)
	if !bytes.Equal(a, b) {
		t.Fatal("terms spelling diverged from query spelling")
	}
	// Same canonical class → one backend computation.
	if calls := backend.calls.Load(); calls != 1 {
		t.Fatalf("backend ran %d times for one canonical class, want 1", calls)
	}

	base := decode(post(t, search+"?baseline=1", "reader", `{"query":"vintage cars"}`, nil))
	if !base.Baseline {
		t.Fatal("baseline response not flagged")
	}
	if calls := backend.calls.Load(); calls != 2 {
		t.Fatalf("baseline did not compute separately (calls=%d)", calls)
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

// TestAdminWatchStreams drives the streaming admin route: frames
// arrive on the interval, queries between frames surface in
// delta_queries, and closing the gateway releases the stream.
func TestAdminWatchStreams(t *testing.T) {
	g, hs := testGateway(t, &stubBackend{}, serve.DefaultConfig(), nil)

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/admin/watch?interval_ms=20", nil)
	req.Header.Set("Authorization", "Bearer ops")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantStatus(t, resp, http.StatusOK)
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	readFrame := func() watchFrame {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("watch stream ended early: %v", sc.Err())
		}
		var f watchFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		return f
	}
	first := readFrame()
	if first.DeltaQueries != 0 {
		t.Fatalf("baseline frame has delta %d", first.DeltaQueries)
	}
	// Traffic between frames must show up as a delta.
	wantStatus(t, post(t, hs.URL+"/v1/search", "reader", `{"query":"storm"}`, nil), http.StatusOK)
	deadline := time.Now().Add(5 * time.Second)
	var sawDelta bool
	for time.Now().Before(deadline) {
		if f := readFrame(); f.DeltaQueries > 0 {
			sawDelta = true
			break
		}
	}
	if !sawDelta {
		t.Fatal("no frame reported the query delta")
	}
	// Close releases the handler; the stream must end.
	g.Close()
	ended := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not end on gateway Close")
	}
}

// TestWatchSlowLogDeltas drives the SlowLog half of the watch stream
// with an instrumented serving layer.
func TestWatchSlowLogDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	scfg := serve.DefaultConfig()
	scfg.Obs = reg
	scfg.SlowLogThreshold = 0 // keep every trace
	_, hs := testGateway(t, &stubBackend{}, scfg, func(cfg *Config) { cfg.Obs = reg })

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/admin/watch?interval_ms=20", nil)
	req.Header.Set("Authorization", "Bearer ops")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantStatus(t, resp, http.StatusOK)
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no baseline frame")
	}
	wantStatus(t, post(t, hs.URL+"/v1/search", "reader", `{"query":"storm"}`, nil), http.StatusOK)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !sc.Scan() {
			t.Fatalf("stream ended: %v", sc.Err())
		}
		var f watchFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		if len(f.Slow) > 0 {
			if f.Slow[0].Query != "storm" || f.Slow[0].TermSet != "storm" {
				t.Fatalf("slow delta carries query %q under term set %q, want \"storm\" under itself", f.Slow[0].Query, f.Slow[0].TermSet)
			}
			return
		}
	}
	t.Fatal("no frame carried the slow-log delta")
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
	got, err := ParseTokens("dev::::admin, reader:50:100:10000, free:::")
	if err != nil {
		t.Fatal(err)
	}
	if !got["dev"].Admin || got["dev"].Rate != 0 {
		t.Fatalf("dev = %+v", got["dev"])
	}
	if r := got["reader"]; r.Rate != 50 || r.Burst != 100 || r.DailyQuota != 10000 || r.Admin {
		t.Fatalf("reader = %+v", r)
	}
	if f := got["free"]; f != (TokenConfig{}) {
		t.Fatalf("free = %+v", f)
	}
	for _, bad := range []string{
		"", ":50::", "a:b::", "a::b:", "a:::b", "a::::root", "a:::,a:::", "a:1:2:3:admin:extra",
	} {
		if _, err := ParseTokens(bad); err == nil {
			t.Fatalf("ParseTokens(%q) accepted", bad)
		}
	}
}
