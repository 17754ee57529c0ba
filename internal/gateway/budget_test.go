package gateway

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/serve"
)

// budgetBackend answers like stubBackend but, as the real detector
// does, only while the request's budget lasts; it records how much of
// the budget was left when the search began.
type budgetBackend struct {
	stubBackend
	left atomic.Int64 // a time.Duration
}

func (b *budgetBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	deadline, _ := ctx.Deadline()
	b.left.Store(int64(time.Until(deadline)))
	if err := ctx.Err(); err != nil {
		return nil, core.SearchTrace{}, err
	}
	return b.stubBackend.SearchContext(ctx, query)
}

// TestClientMillisNeverWrap pins the conversion of the client-named
// millisecond count, X-Budget-Ms: it is clamped while
// still an integer of milliseconds, so a count too large for a
// time.Duration saturates at MaxBudget instead of wrapping negative —
// which answered every miss 504 at once.
func TestClientMillisNeverWrap(t *testing.T) {
	const maxBudget = 10 * time.Second
	maxMs := int64(maxBudget / time.Millisecond)
	lastMs := int64(math.MaxInt64 / int64(time.Millisecond)) // the largest count a Duration holds
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	backend := &budgetBackend{}
	g := newTestGateway(t, backend, serve.Config{}, func(c *Config) { c.MaxBudget = maxBudget })
	for _, c := range []struct {
		ms     int64
		budget time.Duration
	}{
		{1, ms(1)},
		{maxMs - 1, maxBudget - ms(1)},
		{maxMs, maxBudget},
		{maxMs + 1, maxBudget},
		{lastMs - 1, maxBudget},
		{lastMs, maxBudget},
		{lastMs + 1, maxBudget},
		{10000000000000, maxBudget},
		{math.MaxInt64, maxBudget},
	} {
		raw := strconv.FormatInt(c.ms, 10)
		r := httptest.NewRequest(http.MethodPost, "/v1/search", nil)
		r.Header.Set("X-Budget-Ms", raw)
		if got, err := g.budget(r); err != nil || got != c.budget {
			t.Errorf("budget of %s ms = %v, %v; want %v", raw, got, err, c.budget)
		}
	}

	// Through the handler, a search naming the wrapping budget runs under
	// MaxBudget and is answered.
	hs := httptest.NewServer(g)
	defer hs.Close()
	resp := post(t, hs.URL+"/v1/search", "reader", `{"query":"storm"}`,
		map[string]string{"X-Budget-Ms": "10000000000000"})
	wantStatus(t, resp, http.StatusOK)
	if left := time.Duration(backend.left.Load()); left <= 0 || left > maxBudget {
		t.Errorf("the search began with %v of its budget left, want (0, %v]", left, maxBudget)
	}
}
