// Package gateway is the front door of the reproduction: an HTTP/JSON
// service over a serve.Server, modelling how the paper's expertise
// detector would actually face production web-search traffic —
// authenticated clients, per-client rate limits and daily quotas, and a
// latency budget per request.
//
// The request surface is one route in one spelling:
//
//	POST /v1/search {"query": "vintage cars"} → ranked e# experts
//
// Every other path is 404, whatever the token. Internal state — the
// serving layer's and the gateway's counters, the slow-query log and
// its live stream — lives on the process's admin plane (obs.StartAdmin),
// never on the public port.
//
// Every request carries "Authorization: Bearer <token>"; tokens are
// provisioned in Config.Tokens with a token-bucket rate and a UTC-daily
// quota. The refusal ladder is strict HTTP: 401 for no/unknown token,
// 429 with Retry-After for a rate or quota trip, 400 for a query
// string, a malformed body or a degenerate query (serve.ErrEmptyQuery,
// serve.ErrTooManyTerms), 413 for a body over 1 MiB, 503 with
// Retry-After when the serving layer sheds a cold miss under overload
// (serve.ErrOverloaded — warm cache hits are still answered), and 504
// when the request's latency budget expires before the scatter-gather
// returns. An answer some shard was missing from is a 200 whose body
// adds "partial":true and the missing shard indices
// (serve.PartialError); a whole answer has neither field.
//
// The body is read whole and must be exactly one JSON object: anything
// but whitespace after it is a malformed body (400), not ignored.
//
// The budget is the deadline-propagation spine: X-Budget-Ms, clamped
// to Config.MaxBudget, becomes a deadline handed to
// serve.Server.Answer, which arms it only once the request has missed
// the cache; from there it rides the context into the sharded
// detector's scatter-gather and into per-RPC deadlines on every remote
// shard — a stalled shard costs the client its budget, never more, and
// cancellation releases every pinned snapshot with no goroutine left
// behind (the scatter-gather checks only at its barriers, where all
// workers have already returned).
//
// A warm hit — the common case under repeat-heavy search traffic — is
// auth, the body decode and one Write: the cache entry carries its
// ranking's JSON, the handler wraps it in pooled scratch, and nothing
// else is allocated per request that encoding/json and net/http do not
// force (no context, no encoder or decoder state, no closure).
//
// Results are the serving layer's verbatim: at quiescence the experts
// in the JSON body are bit-identical (modulo the JSON number round
// trip, which is exact for float64) to an in-process detector over the
// same stream — the equivalence spine extends through the front door.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Config wires a Gateway.
type Config struct {
	// Serve is the serving layer fronted; required. Budgets, shedding
	// and admission (empty/oversized queries) are its policy — the
	// gateway only translates its typed errors to HTTP.
	Serve *serve.Server
	// Tokens is the credential table. An empty table refuses every
	// request with 401 — the gateway is closed by default.
	Tokens map[string]TokenConfig
	// DefaultBudget is the per-request latency budget when the client
	// names none (default 2s); MaxBudget clamps client-named budgets
	// (default 10s). A request past its budget gets 504.
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// Obs, when non-nil, mirrors every gateway counter into the
	// registry (gateway_requests, gateway_ok, gateway_unauthorized,
	// gateway_rate_limited, gateway_quota_exceeded, gateway_bad_request,
	// gateway_shed, gateway_timeout, gateway_backend_errors) and records end-to-end request latency in
	// the gateway_request_ns histogram — typically the same registry
	// the serve.Server and its admin plane share, so the front door and
	// the serving layer land in one /metrics namespace.
	Obs *obs.Registry
	// Now substitutes the wall clock for the rate/quota limiters;
	// tests drive quota windows with it. Nil means time.Now.
	Now func() time.Time
}

// Stats is a snapshot of the gateway's request counters. Requests is
// the total; every request lands in exactly one of the other buckets.
type Stats struct {
	Requests      int64
	OK            int64
	Unauthorized  int64 // 401: missing or unknown bearer token
	RateLimited   int64 // 429: token bucket empty
	QuotaExceeded int64 // 429: UTC-daily quota spent
	BadRequest    int64 // 400/405: query string, malformed body, degenerate query, wrong method
	Shed          int64 // 503: serving layer shed a cold miss under overload
	Timeout       int64 // 504: latency budget expired
	BackendErrors int64 // 502: backend failed for another reason
}

// Gateway is the HTTP front door over one serve.Server. It is an
// http.Handler.
type Gateway struct {
	cfg  Config
	srv  *serve.Server
	auth *authTable
	mux  *http.ServeMux
	now  func() time.Time

	requests, ok, unauthorized, rateLimited atomic.Int64
	quotaExceeded, badRequest, shed         atomic.Int64
	timeout, backendErr                     atomic.Int64

	obsOn    bool
	obsReqNS *obs.Histogram
}

// New builds a gateway over cfg.Serve. The only error is a nil Serve.
func New(cfg Config) (*Gateway, error) {
	if cfg.Serve == nil {
		return nil, errors.New("gateway: Config.Serve is required")
	}
	if cfg.DefaultBudget <= 0 {
		cfg.DefaultBudget = 2 * time.Second
	}
	if cfg.MaxBudget <= 0 {
		cfg.MaxBudget = 10 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	g := &Gateway{
		cfg:  cfg,
		srv:  cfg.Serve,
		auth: newAuthTable(cfg.Tokens),
		now:  cfg.Now,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", g.handleSearch)
	g.mux = mux
	if cfg.Obs != nil {
		g.obsOn = true
		g.obsReqNS = cfg.Obs.Histogram("gateway_request_ns")
		cfg.Obs.RegisterFunc("gateway_requests", g.requests.Load)
		cfg.Obs.RegisterFunc("gateway_ok", g.ok.Load)
		cfg.Obs.RegisterFunc("gateway_unauthorized", g.unauthorized.Load)
		cfg.Obs.RegisterFunc("gateway_rate_limited", g.rateLimited.Load)
		cfg.Obs.RegisterFunc("gateway_quota_exceeded", g.quotaExceeded.Load)
		cfg.Obs.RegisterFunc("gateway_bad_request", g.badRequest.Load)
		cfg.Obs.RegisterFunc("gateway_shed", g.shed.Load)
		cfg.Obs.RegisterFunc("gateway_timeout", g.timeout.Load)
		cfg.Obs.RegisterFunc("gateway_backend_errors", g.backendErr.Load)
	}
	return g, nil
}

// ServeHTTP dispatches to the gateway's routes.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Close does nothing: the gateway holds no stream or goroutine to
// release.
//
// Deprecated: an http.Server over the gateway drains on Shutdown alone.
func (g *Gateway) Close() {}

// Stats snapshots the request counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Requests:      g.requests.Load(),
		OK:            g.ok.Load(),
		Unauthorized:  g.unauthorized.Load(),
		RateLimited:   g.rateLimited.Load(),
		QuotaExceeded: g.quotaExceeded.Load(),
		BadRequest:    g.badRequest.Load(),
		Shed:          g.shed.Load(),
		Timeout:       g.timeout.Load(),
		BackendErrors: g.backendErr.Load(),
	}
}

// errorBody is the JSON envelope of every non-200 response.
type errorBody struct {
	Error string `json:"error"`
}

// fail writes one error response. retryAfter > 0 adds the Retry-After
// header, rounded up to whole seconds (never 0 — a client that obeys
// "0" would hammer).
func fail(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// authenticate resolves and admits the request's bearer token,
// writing the 401/429 refusal itself. ok is false once the response
// has been written.
func (g *Gateway) authenticate(w http.ResponseWriter, r *http.Request) bool {
	st := g.auth.lookup(r.Header.Get("Authorization"))
	if st == nil {
		g.unauthorized.Add(1)
		w.Header().Set("WWW-Authenticate", `Bearer realm="esharp"`)
		fail(w, http.StatusUnauthorized, "missing or unknown bearer token", 0)
		return false
	}
	admitted, retryAfter, quota := st.admit(g.now())
	if !admitted {
		if quota {
			g.quotaExceeded.Add(1)
			fail(w, http.StatusTooManyRequests, "daily quota exceeded", retryAfter)
		} else {
			g.rateLimited.Add(1)
			fail(w, http.StatusTooManyRequests, "rate limit exceeded", retryAfter)
		}
		return false
	}
	return true
}

// budget resolves the request's latency budget: the X-Budget-Ms header,
// else Config.DefaultBudget; client values are clamped to
// (0, Config.MaxBudget]. The ceiling is applied in integer
// milliseconds, before the multiplication, so a huge count saturates
// at MaxBudget instead of wrapping negative.
func (g *Gateway) budget(r *http.Request) (time.Duration, error) {
	raw := r.Header.Get("X-Budget-Ms")
	if raw == "" {
		return g.cfg.DefaultBudget, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return 0, errors.New("budget must be a positive integer of milliseconds")
	}
	if ms > int64(g.cfg.MaxBudget/time.Millisecond) {
		return g.cfg.MaxBudget, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// searchRequest is the POST /v1/search body.
type searchRequest struct {
	Query string `json:"query"`
}

// maxBody caps the request body; a longer one is answered 413.
const maxBody = 1 << 20

// maxPooledBuffer is the largest scratch buffer worth keeping: one
// oversized request or ranking must not pin its buffer in the pool.
const maxPooledBuffer = 64 << 10

// jsonContentType is the Content-Type value every search answer
// shares; net/http copies header values out, nothing writes through.
var jsonContentType = []string{"application/json"}

// scratch is everything one search request needs that the next can
// reuse. query and experts exist to be pointed at: the encoder takes
// its operand as an interface, and a pointer boxes without allocating.
// The decoder is kept because json.Unmarshal builds its decode and
// scan state afresh on every call, and a reused Decoder does not.
type scratch struct {
	body    bytes.Buffer  // the request body, read whole
	rd      bytes.Reader  // over body, re-pointed per request
	dec     *json.Decoder // over rd
	out     bytes.Buffer  // the response under assembly
	enc     *json.Encoder // over out
	req     searchRequest
	query   string
	experts []expertise.Expert
}

var scratchPool = sync.Pool{New: func() any {
	sc := new(scratch)
	sc.dec = json.NewDecoder(&sc.rd)
	sc.enc = json.NewEncoder(&sc.out)
	return sc
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns sc to the pool, minus anything that would pin a
// request's data or an outsized buffer. The decoder's buffer grows to
// about twice the largest body it has read, so the body's cap bounds it
// too.
func (sc *scratch) release() {
	if sc.body.Cap() > maxPooledBuffer || sc.out.Cap() > maxPooledBuffer {
		return
	}
	sc.body.Reset()
	sc.rd.Reset(nil)
	sc.out.Reset()
	sc.req, sc.query, sc.experts = searchRequest{}, "", nil
	scratchPool.Put(sc)
}

// decode parses the request body into sc.req, accepting and refusing
// exactly what json.Unmarshal does, with the same error text. A valid
// body goes through the pooled decoder; Valid also rejects the trailing
// data a bare Decode would leave unread, and after it a Decode cannot
// fail on syntax, so the decoder never keeps a sticky error or a
// half-read value for the next request. An invalid body is refused by
// Unmarshal itself, for its message.
func (sc *scratch) decode() error {
	body := sc.body.Bytes()
	if !json.Valid(body) {
		return json.Unmarshal(body, &sc.req)
	}
	sc.rd.Reset(body)
	return sc.dec.Decode(&sc.req)
}

// encodeAnswer assembles the 200 body in sc.out:
//
//	{"query":…,"experts":[…]}\n
//
// byte for byte what json.NewEncoder(w).Encode of the equivalent struct
// would send. encoded is the cache's json.Marshal of experts when it
// has one; otherwise experts are encoded here ("[]" for none, never
// null).
func (sc *scratch) encodeAnswer(query string, experts []expertise.Expert, encoded []byte) error {
	out := &sc.out
	out.Reset()
	out.WriteString(`{"query":`)
	sc.query = query
	if err := sc.enc.Encode(&sc.query); err != nil {
		return err
	}
	out.Truncate(out.Len() - 1) // the encoder ends every value with a newline
	out.WriteString(`,"experts":`)
	switch {
	case encoded != nil:
		out.Write(encoded)
	case len(experts) == 0:
		out.WriteString("[]")
	default:
		sc.experts = experts
		if err := sc.enc.Encode(&sc.experts); err != nil {
			return err
		}
		out.Truncate(out.Len() - 1)
	}
	out.WriteString("}\n")
	return nil
}

// labelPartial marks the body encodeAnswer assembled as a partial
// answer, naming the shards it lacks:
//
//	{…,"experts":[…],"partial":true,"missing_shards":[1]}\n
//
// A whole answer carries neither field, so its bytes stay exactly
// encodeAnswer's.
func (sc *scratch) labelPartial(missing core.MissingShards) {
	out := &sc.out
	out.Truncate(out.Len() - 2) // "}\n"
	out.WriteString(`,"partial":true,"missing_shards":[`)
	for i, shard := range missing.AppendIndices(nil) {
		if i > 0 {
			out.WriteByte(',')
		}
		out.WriteString(strconv.Itoa(shard))
	}
	out.WriteString("]}\n")
}

func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	if g.obsOn {
		defer g.observeSince(time.Now())
	}
	if r.Method != http.MethodPost {
		g.badRequest.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		fail(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	if !g.authenticate(w, r) {
		return
	}
	if r.URL.RawQuery != "" {
		g.badRequest.Add(1)
		fail(w, http.StatusBadRequest, "the search route takes no query parameters", 0)
		return
	}
	sc := getScratch()
	defer sc.release()
	_, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		err = sc.decode()
	}
	if err != nil {
		g.badRequest.Add(1)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		fail(w, status, "malformed JSON body: "+err.Error(), 0)
		return
	}
	query := sc.req.Query
	budget, err := g.budget(r)
	if err != nil {
		g.badRequest.Add(1)
		fail(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	// The budget's clock starts here; serve arms it only if the request
	// misses the cache.
	deadline := time.Now().Add(budget)
	experts, encoded, err := g.srv.Answer(r.Context(), query, deadline)
	// A type assertion, not errors.As: Answer returns the partial error
	// bare, and taking the address of a target would cost every request
	// an allocation.
	partial, _ := err.(*serve.PartialError)
	if partial != nil {
		err = nil // the answer stands, labelled below
	}
	if err == nil {
		// Unencodable only if a score is not finite — a detector bug,
		// reported like any other backend failure.
		err = sc.encodeAnswer(query, experts, encoded)
	}
	if err == nil && partial != nil {
		sc.labelPartial(partial.Missing)
	}
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrEmptyQuery), errors.Is(err, serve.ErrTooManyTerms):
			g.badRequest.Add(1)
			fail(w, http.StatusBadRequest, err.Error(), 0)
		case errors.Is(err, serve.ErrOverloaded):
			g.shed.Add(1)
			fail(w, http.StatusServiceUnavailable, err.Error(), time.Second)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			// The budget ran out (or the client hung up — the response
			// goes nowhere either way): the whole query fails, because a
			// partial answer past the deadline has no reader.
			g.timeout.Add(1)
			fail(w, http.StatusGatewayTimeout, "latency budget exhausted", 0)
		default:
			g.backendErr.Add(1)
			fail(w, http.StatusBadGateway, err.Error(), 0)
		}
		return
	}
	g.ok.Add(1)
	w.Header()["Content-Type"] = jsonContentType
	w.Write(sc.out.Bytes()) // one Write; a failed one has no one left to tell
}

// observeSince records one request's end-to-end latency.
func (g *Gateway) observeSince(start time.Time) {
	g.obsReqNS.Observe(time.Since(start).Nanoseconds())
}
