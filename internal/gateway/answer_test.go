package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/expertise"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/serve"
	"repro/internal/textutil"
	"repro/internal/world"
)

// searchResponse is the oracle of the 200 body: the handler assembles
// its bytes by hand around the cache's encoded ranking, and they must
// equal json.Encoder's encoding of this struct. Experts is never null —
// an empty result is [].
type searchResponse struct {
	Query    string             `json:"query"`
	Baseline bool               `json:"baseline,omitempty"`
	Experts  []expertise.Expert `json:"experts"`
}

// referenceBody is what json.NewEncoder(w).Encode(searchResponse{…})
// sends: the body every 200 must equal byte for byte.
func referenceBody(t testing.TB, query string, baseline bool, experts []expertise.Expert) []byte {
	t.Helper()
	if experts == nil {
		experts = []expertise.Expert{}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(searchResponse{Query: query, Baseline: baseline, Experts: experts}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inproc drives a handler in-process, one request at a time, reusing
// the request, its body reader and the response writer — the shape of
// bench's waterfall driver — so that what a call allocates is the
// handler's own.
type inproc struct {
	h      http.Handler
	req    *http.Request
	body   bodyReader
	header http.Header
	status int
	writes int
	out    bytes.Buffer
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func newInproc(t testing.TB, h http.Handler, target string) *inproc {
	t.Helper()
	p := &inproc{h: h, header: make(http.Header)}
	req, err := http.NewRequest(http.MethodPost, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer reader")
	req.Body = &p.body
	p.req = req
	return p
}

func (p *inproc) Header() http.Header    { return p.header }
func (p *inproc) WriteHeader(status int) { p.status = status }
func (p *inproc) Write(b []byte) (int, error) {
	p.writes++
	return p.out.Write(b)
}

func (p *inproc) do(body []byte) (int, []byte) {
	p.body.Reset(body)
	p.req.ContentLength = int64(len(body))
	clear(p.header)
	p.status = http.StatusOK
	p.writes = 0
	p.out.Reset()
	p.h.ServeHTTP(p, p.req)
	return p.status, p.out.Bytes()
}

// manyExperts is a ranking the size production answers have.
func manyExperts(n int) []expertise.Expert {
	out := make([]expertise.Expert, n)
	for i := range out {
		f := float64(i)
		out[i] = expertise.Expert{User: world.UserID(1000 + 7*i), Score: 9.75 - f/8, TS: 1 / (f + 3), MI: f * 1e-7, RI: f * 1e21, HT: -f, OnTopicTweets: i}
	}
	return out
}

// TestWarmHitAllocBudget pins the front door's own cost on a warm hit,
// measured the way bench's gateway.hit seam measures it: everything
// around the handler reused, so the count is the handler's plus what
// encoding/json and http.MaxBytesReader force. The response must also
// leave in one Write.
func TestWarmHitAllocBudget(t *testing.T) {
	ranking := manyExperts(60)
	backend := &stubBackend{ranking: func(uint64) []expertise.Expert { return ranking }}
	for _, withObs := range []bool{false, true} {
		g := newTestGateway(t, backend, serve.DefaultConfig(), func(c *Config) {
			if withObs {
				c.Obs = obs.NewRegistry()
			}
		})
		p := newInproc(t, g, "/v1/search")
		body := []byte(`{"query":"vintage cars"}`)
		want := referenceBody(t, "vintage cars", false, ranking)
		for i := 0; i < 3; i++ { // miss, first hit, later hit
			if status, got := p.do(body); status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("obs=%v request %d: status %d, body\n%s\nwant\n%s", withObs, i, status, got, want)
			}
			if p.writes != 1 {
				t.Fatalf("obs=%v request %d: answer left in %d Writes, want 1", withObs, i, p.writes)
			}
		}
		allocs := testing.AllocsPerRun(200, func() { p.do(body) })
		// 7 in a plain run — net/http's and encoding/json's six plus the
		// canonical cache key of a query whose tokens arrive out of order
		// ("vintage cars" keys as "cars vintage"); serve's admission adds
		// nothing. The race detector makes sync.Pool drop a
		// quarter of its Puts, so there the scratch (and encoding/json's
		// own pooled state) is sometimes rebuilt.
		budget := 8.0
		if race.Enabled {
			budget = 20
		}
		if allocs > budget {
			t.Fatalf("obs=%v: warm hit through ServeHTTP allocates %v times, want ≤ %v", withObs, allocs, budget)
		}
	}
	if calls := backend.calls.Load(); calls != 2 {
		t.Fatalf("backend ran %d times, want once per gateway", calls)
	}
}

// answerCase is one (query, endpoint, ranking) the byte-identity tests
// push through every way a 200 can come about.
type answerCase struct {
	query    string
	baseline bool
	experts  []expertise.Expert
}

// requestFor returns the request target and body for c, and the query
// the handler will see once the body has been through encoding/json
// (which replaces invalid UTF-8 on both encode and decode).
func (c answerCase) requestFor(t testing.TB) (target string, body []byte, seen string) {
	t.Helper()
	target = "/v1/search"
	if c.baseline {
		target += "?baseline=1"
	}
	body, err := json.Marshal(searchRequest{Query: c.query})
	if err != nil {
		t.Fatal(err)
	}
	var back searchRequest
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	return target, body, back.Query
}

// checkAnswerBytes drives c as a miss, a first hit and a later hit on a
// caching server and as three misses on a cache-less one; every body
// must equal the reference encoder's, and leave in one Write. Queries
// that tokenize to nothing must be 400 every time instead.
func checkAnswerBytes(t testing.TB, c answerCase) {
	t.Helper()
	target, body, seen := c.requestFor(t)
	want := referenceBody(t, seen, c.baseline, c.experts)
	blank := len(textutil.Tokenize(seen)) == 0
	for _, cacheSize := range []int{4096, 0} {
		backend := &stubBackend{ranking: func(uint64) []expertise.Expert { return c.experts }}
		scfg := serve.DefaultConfig()
		scfg.CacheSize = cacheSize
		g := newTestGateway(t, backend, scfg, nil)
		p := newInproc(t, g, target)
		for i, outcome := range []string{"miss", "first hit", "later hit"} {
			status, got := p.do(body)
			if blank {
				if status != http.StatusBadRequest {
					t.Fatalf("blank query %q: status %d, want 400", seen, status)
				}
				continue
			}
			if status != http.StatusOK || !bytes.Equal(got, want) || p.writes != 1 {
				t.Fatalf("cache=%d %s of %q (baseline=%v, %d experts): status %d in %d Writes, body\n%q\nwant\n%q",
					cacheSize, outcome, seen, c.baseline, len(c.experts), status, p.writes, got, want)
			}
			wantCalls := int64(1)
			if cacheSize == 0 {
				wantCalls = int64(i + 1)
			}
			if calls := backend.calls.Load(); calls != wantCalls {
				t.Fatalf("cache=%d %s: backend ran %d times, want %d", cacheSize, outcome, calls, wantCalls)
			}
		}
	}
}

// hardQueries are the strings the response's hand-assembled "query"
// member has to get right: everything encoding/json escapes.
var hardQueries = []string{
	"vintage cars",
	"49ers",
	`say "cheese"`,
	`back\slash and /slash`,
	"<script>alert('x')</script> & more",
	"tab\tnewline\nreturn\rbell\abackspace\bformfeed\fnull\x00unit\x1fdel\x7f",
	"naïve café — 東京 🗼",
	"line\u2028sep para\u2029sep",
	"bad\xffutf8 \xc3\x28 \xed\xa0\x80",
	"UPPER lower  spaced   out ",
	" ",
	"",
}

func TestAnswerBytesIdentical(t *testing.T) {
	rankings := [][]expertise.Expert{nil, {}, manyExperts(1), manyExperts(60)}
	for _, q := range hardQueries {
		for _, baseline := range []bool{false, true} {
			for _, experts := range rankings {
				checkAnswerBytes(t, answerCase{query: q, baseline: baseline, experts: experts})
			}
		}
	}
}

func FuzzAnswerBytes(f *testing.F) {
	for i, q := range hardQueries {
		f.Add(q, i%2 == 0, uint8(i))
	}
	f.Fuzz(func(t *testing.T, query string, baseline bool, n uint8) {
		experts := manyExperts(int(n % 70))
		checkAnswerBytes(t, answerCase{query: query, baseline: baseline, experts: experts})
		// The assembler itself, on the raw string (a request body can
		// only deliver valid UTF-8; a terms join or a future caller is
		// not so constrained), with and without the cache's bytes.
		want := referenceBody(t, query, baseline, experts)
		encoded, err := json.Marshal(experts)
		if err != nil {
			t.Fatal(err)
		}
		sc := getScratch()
		defer sc.release()
		for _, enc := range [][]byte{nil, encoded} {
			if err := sc.encodeAnswer(query, baseline, experts, enc); err != nil {
				t.Fatal(err)
			}
			if got := sc.out.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("encodeAnswer(%q, %v, %d experts, cached=%v) =\n%q\nwant\n%q", query, baseline, len(experts), enc != nil, got, want)
			}
		}
	})
}

// TestCoalescedFollowerBytesIdentical covers the one 200 the table
// above cannot reach deterministically: a follower that waited on
// another request's computation gets experts without bytes, and its
// body must still equal the reference. Parking on the flight cannot be
// observed from outside, so each case retries until serve reports a
// coalesced request.
func TestCoalescedFollowerBytesIdentical(t *testing.T) {
	for _, c := range []answerCase{
		{query: "vintage <cars> & \"bikes\"", experts: manyExperts(60)},
		{query: "49ers", baseline: true, experts: nil},
	} {
		target, body, seen := c.requestFor(t)
		want := referenceBody(t, seen, c.baseline, c.experts)
		coalesced := false
		for attempt := 0; attempt < 50 && !coalesced; attempt++ {
			backend := &stubBackend{gate: make(chan struct{}), ranking: func(uint64) []expertise.Expert { return c.experts }}
			g := newTestGateway(t, backend, serve.DefaultConfig(), nil)
			bodies := make(chan []byte, 2)
			ask := func() {
				status, got := newInproc(t, g, target).do(body)
				if status != http.StatusOK {
					t.Errorf("status %d", status)
				}
				bodies <- got
			}
			go ask()
			for backend.calls.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			go ask()
			for g.srv.Stats().Queries < 2 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
			close(backend.gate)
			for i := 0; i < 2; i++ {
				if got := <-bodies; !bytes.Equal(got, want) {
					t.Fatalf("%q: body\n%q\nwant\n%q", seen, got, want)
				}
			}
			coalesced = g.srv.Stats().Coalesced == 1
		}
		if !coalesced {
			t.Fatalf("%q: no follower ever coalesced", seen)
		}
	}
}

// TestWarmHitIgnoresBudget pins "the budget is armed only on a miss": a
// cached answer is served whatever the budget says, without touching a
// backend that would eat the whole of it.
func TestWarmHitIgnoresBudget(t *testing.T) {
	backend := &stubBackend{}
	g := newTestGateway(t, backend, serve.DefaultConfig(), nil)
	p := newInproc(t, g, "/v1/search")
	body := []byte(`{"query":"warm"}`)
	if status, _ := p.do(body); status != http.StatusOK {
		t.Fatalf("warming request: status %d", status)
	}
	backend.stall = true
	p.req.Header.Set("X-Budget-Ms", "1")
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond) // any clock the budget started has run out
		if status, got := p.do(body); status != http.StatusOK {
			t.Fatalf("warm hit with a 1ms budget over a stalled backend: status %d (%s)", status, got)
		}
	}
	if calls := backend.calls.Load(); calls != 1 {
		t.Fatalf("backend ran %d times, want 1", calls)
	}
	// The same budget on a cold query is spent waiting on the stall.
	if status, _ := p.do([]byte(`{"query":"cold"}`)); status != http.StatusGatewayTimeout {
		t.Fatalf("cold miss with a 1ms budget over a stalled backend: status %d, want 504", status)
	}
	checkStatsInvariant(t, g)
}

// TestFollowerBudgetExpires504 pins the other half: a request that
// misses and waits on another's computation is under its own budget
// from the moment it starts waiting — 504 when it runs out — while the
// leader, under a longer one, completes and fills the cache.
func TestFollowerBudgetExpires504(t *testing.T) {
	backend := &stubBackend{gate: make(chan struct{})}
	g := newTestGateway(t, backend, serve.DefaultConfig(), nil)
	body := []byte(`{"query":"slow topic"}`)

	leader := make(chan int, 1)
	go func() {
		status, _ := newInproc(t, g, "/v1/search").do(body)
		leader <- status
	}()
	for backend.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	follower := newInproc(t, g, "/v1/search")
	follower.req.Header.Set("X-Budget-Ms", "20")
	start := time.Now()
	if status, got := follower.do(body); status != http.StatusGatewayTimeout {
		t.Fatalf("follower past its budget: status %d (%s), want 504", status, got)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond || waited > 2*time.Second {
		t.Fatalf("follower waited %v on a 20ms budget", waited)
	}
	close(backend.gate)
	if status := <-leader; status != http.StatusOK {
		t.Fatalf("leader: status %d", status)
	}
	if status, _ := follower.do(body); status != http.StatusOK {
		t.Fatalf("request after the leader finished: status %d", status)
	}
	if calls := backend.calls.Load(); calls != 1 {
		t.Fatalf("backend ran %d times, want 1 (the leader's answer must be cached)", calls)
	}
	if st := g.Stats(); st.Timeout != 1 || st.OK != 2 {
		t.Fatalf("want 1 timeout + 2 OK: %+v", st)
	}
	checkStatsInvariant(t, g)
}

// TestConcurrentAnswersUnderEpochChurn is the -race hammer for the
// pooled scratch and the shared cache bytes: concurrent requests for
// different queries and endpoints while the epoch advances under them
// and entries are invalidated, refreshed and first-hit. Every body must
// be the reference encoding of its own query over one of the rankings
// the backend produces. (Which of them a request may still see is
// serve's contract, pinned by its own hammer.)
func TestConcurrentAnswersUnderEpochChurn(t *testing.T) {
	const rankings = 20
	backend := &stubBackend{ranking: func(epoch uint64) []expertise.Expert {
		return manyExperts(int(epoch%rankings) + 1)
	}}
	g := newTestGateway(t, backend, serve.DefaultConfig(), nil)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				backend.epoch.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	const clients, perClient = 6, 500
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Two clients per cache key so hits on one entry overlap.
			ac := answerCase{query: hardQueries[c%3], baseline: c%3 == 1}
			target, body, seen := ac.requestFor(t)
			legit := make(map[string]bool, rankings)
			for e := uint64(0); e < rankings; e++ {
				legit[string(referenceBody(t, seen, ac.baseline, backend.ranking(e)))] = true
			}
			p := newInproc(t, g, target)
			e0 := backend.epoch.Load()
			for i := 0; i < perClient; i++ {
				if i == perClient/2 {
					// Let the epoch move under this client's cached
					// answer at least once, however the scheduler ran.
					for backend.epoch.Load() == e0 {
						time.Sleep(50 * time.Microsecond)
					}
				}
				if status, got := p.do(body); status != http.StatusOK || !legit[string(got)] {
					t.Errorf("client %d: status %d, body encodes none of %q's rankings:\n%s", c, status, seen, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if st := g.srv.Stats(); st.CacheHits == 0 || st.Invalidations == 0 {
		t.Fatalf("hammer exercised no hits or no invalidations: %+v", st)
	}
}
