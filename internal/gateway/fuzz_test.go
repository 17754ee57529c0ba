package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
// search body, the X-Budget-Ms header and the URL's raw query string.
// No input may panic the handler, every status must be a documented one
// with a JSON body, any query string must be refused with 400, and the
// gateway's counters must still add up. The body then goes through
// a second, cache-less gateway that keeps its pooled decoders across
// inputs, followed by a fixed valid body: each must be answered as
// json.Unmarshal of it implies (TestDecodeMatchesUnmarshal).
func FuzzHandler(f *testing.F) {
	query := func(n int) string { return `{"query":"` + strings.TrimSpace(strings.Repeat("a ", n)) + `"}` }
	f.Add(query(64), "", "")
	f.Add(query(65), "", "")
	f.Add(`{"terms":["vintage","cars"]}`, "250", "baseline=1")
	f.Add(`{"query":"49ers"} {}`, "9223372036854775807", "")
	f.Add(`{"query":"x"}`, "0", "budget_ms=1")
	f.Add(`[`, "banana", "?&%zz")

	reg := obs.NewRegistry()
	scfg := serve.DefaultConfig()
	scfg.Obs = reg
	g := newTestGateway(f, &stubBackend{}, scfg, func(c *Config) { c.Obs = reg })
	dc := newDecodeCheck(f)

	f.Fuzz(func(t *testing.T, body, hdrBudget, rawQuery string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))
		req.URL.RawQuery = rawQuery
		req.Header.Set("Authorization", "Bearer reader")
		if hdrBudget != "" {
			req.Header.Set("X-Budget-Ms", hdrBudget)
		}
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if rawQuery != "" && rec.Code != http.StatusBadRequest {
			t.Fatalf("query string %q answered %d, want 400", rawQuery, rec.Code)
		}
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
