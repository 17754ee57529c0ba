package gateway

import (
	"bufio"
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

// TestClientMillisNeverWrap pins the conversion of the two
// client-named millisecond counts, X-Budget-Ms and ?interval_ms: each is
// clamped while still an integer of milliseconds, so a count too large
// for a time.Duration saturates at the ceiling instead of wrapping
// negative — which answered every miss 504 at once, and put the watch
// stream on its 10 ms floor.
func TestClientMillisNeverWrap(t *testing.T) {
	const maxBudget = 10 * time.Second
	const forever = time.Duration(math.MaxInt64)
	maxMs := int64(maxBudget / time.Millisecond)
	lastMs := int64(forever / time.Millisecond) // the largest count a Duration holds
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	backend := &budgetBackend{}
	g := newTestGateway(t, backend, serve.Config{}, func(c *Config) { c.MaxBudget = maxBudget })
	for _, c := range []struct {
		ms               int64
		budget, interval time.Duration
	}{
		{1, ms(1), minWatchTick},
		{maxMs - 1, maxBudget - ms(1), ms(maxMs - 1)},
		{maxMs, maxBudget, ms(maxMs)},
		{maxMs + 1, maxBudget, ms(maxMs + 1)},
		{lastMs - 1, maxBudget, ms(lastMs - 1)},
		{lastMs, maxBudget, ms(lastMs)},
		{lastMs + 1, maxBudget, forever},
		{10000000000000, maxBudget, forever},
		{math.MaxInt64, maxBudget, forever},
	} {
		raw := strconv.FormatInt(c.ms, 10)
		for _, r := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/search", nil),
			httptest.NewRequest(http.MethodPost, "/v1/search?budget_ms="+raw, nil),
		} {
			if r.URL.RawQuery == "" {
				r.Header.Set("X-Budget-Ms", raw)
			}
			if got, err := g.budget(r, r.URL.Query()); err != nil || got != c.budget {
				t.Errorf("budget of %s ms = %v, %v; want %v", raw, got, err, c.budget)
			}
		}
		if got := millis(c.ms, minWatchTick, forever); got != c.interval {
			t.Errorf("watch interval of %s ms = %v, want %v", raw, got, c.interval)
		}
	}

	// Through the handlers. A search naming the wrapping budget runs under
	// MaxBudget and is answered...
	hs := httptest.NewServer(g)
	defer hs.Close()
	defer g.Close()
	resp := post(t, hs.URL+"/v1/search", "reader", `{"query":"storm"}`,
		map[string]string{"X-Budget-Ms": "10000000000000"})
	wantStatus(t, resp, http.StatusOK)
	if left := time.Duration(backend.left.Load()); left <= 0 || left > maxBudget {
		t.Errorf("the search began with %v of its budget left, want (0, %v]", left, maxBudget)
	}
	// ...and a watch naming the wrapping interval sends its baseline frame
	// and then waits, where the wrapped one streamed a frame every 10 ms.
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/admin/watch?interval_ms=10000000000000", nil)
	req.Header.Set("Authorization", "Bearer ops")
	watch, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	wantStatus(t, watch, http.StatusOK)
	frames := make(chan struct{})
	go func() {
		defer close(frames)
		for sc := bufio.NewScanner(watch.Body); sc.Scan(); {
			frames <- struct{}{}
		}
	}()
	<-frames
	select {
	case _, open := <-frames:
		if open {
			t.Error("a second watch frame arrived: the interval wrapped")
		}
	case <-time.After(100 * time.Millisecond):
	}
	g.Close()
	for range frames {
	}
}
