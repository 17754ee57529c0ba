package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// documented is every status the package comment names for the routes
// FuzzHandler drives.
var documented = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusUnauthorized: true,
	http.StatusMethodNotAllowed: true, http.StatusRequestEntityTooLarge: true,
	http.StatusTooManyRequests: true, http.StatusBadGateway: true,
	http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
}

// FuzzHandler drives the front door with client-controlled input: the
// search body, the X-Budget-Ms header and ?budget_ms, and the baseline
// switch. No input may panic the handler, every status must be a
// documented one with a JSON body, and
// the gateway's counters must still add up. The body then goes through
// a second, cache-less gateway that keeps its pooled decoders across
// inputs, followed by a fixed valid body: each must be answered as
// json.Unmarshal of it implies (TestDecodeMatchesUnmarshal).
func FuzzHandler(f *testing.F) {
	query := func(n int) string { return `{"query":"` + strings.TrimSpace(strings.Repeat("a ", n)) + `"}` }
	f.Add(query(64), "", "", false)
	f.Add(query(65), "", "", false)
	f.Add(`{"terms":["vintage","cars"]}`, "250", "", true)
	f.Add(`{"query":"49ers"} {}`, "", "9223372036854775807", false)
	f.Add(`{"query":"x"}`, "0", "1", false)
	f.Add(`[`, "banana", "-5", true)

	reg := obs.NewRegistry()
	scfg := serve.DefaultConfig()
	scfg.Obs = reg
	g := newTestGateway(f, &stubBackend{}, scfg, func(c *Config) { c.Obs = reg })
	dc := newDecodeCheck(f)

	f.Fuzz(func(t *testing.T, body, hdrBudget, qBudget string, baseline bool) {
		params := url.Values{}
		if qBudget != "" {
			params.Set("budget_ms", qBudget)
		}
		if baseline {
			params.Set("baseline", "1")
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/search?"+params.Encode(), strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer reader")
		if hdrBudget != "" {
			req.Header.Set("X-Budget-Ms", hdrBudget)
		}
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if !documented[rec.Code] {
			t.Fatalf("search answered undocumented status %d: %s", rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("search status %d body is not JSON: %q", rec.Code, rec.Body)
		}
		checkStatsInvariant(t, g)

		if len(body) <= maxBody {
			dc.check(t, body)
		}
		dc.check(t, `{"query":"vintage cars"}`)
	})
}
