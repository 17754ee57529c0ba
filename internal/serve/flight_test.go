package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/world"
)

// rankingPerQuery is a backend whose ranking is a function of the query
// alone, built fresh per call, so an answer read from a flight another
// query reused cannot pass for its own. Queries starting with "p" come
// back partial (never cached), and every unknownEvery-th epoch sample
// reads an unknown component (served around the cache): both leave a
// flight no slot keeps.
type rankingPerQuery struct {
	epoch        atomic.Uint64
	samples      atomic.Uint64
	unknownEvery uint64 // 0: never
}

func wantRanking(query string) []expertise.Expert {
	var h world.UserID = 7
	for i := 0; i < len(query); i++ {
		h = h*31 + world.UserID(query[i])
	}
	return []expertise.Expert{{User: h, Score: float64(len(query))}, {User: h + 1, Score: 0.5}}
}

func (b *rankingPerQuery) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	// Yield so identical requests find the flight still running.
	for range 4 {
		runtime.Gosched()
	}
	tr := core.SearchTrace{Query: query}
	if query[0] == 'p' {
		tr.Missing = 1
	}
	return wantRanking(query), tr, nil
}

func (b *rankingPerQuery) TermSetKey([]byte) string     { return "" }
func (b *rankingPerQuery) PartialStats() (int64, int64) { return 0, 0 }
func (b *rankingPerQuery) Failovers() int64             { return 0 }

func (b *rankingPerQuery) EpochVector(dst []uint64) []uint64 {
	if n := b.samples.Add(1); b.unknownEvery > 0 && n%b.unknownEvery == 0 {
		return append(dst[:0], core.EpochUnknown)
	}
	return append(dst[:0], b.epoch.Load())
}

// TestRecycledFlightsAnswerTheirOwnQuery pins the lifetime of a flight
// that goes back to the server's pool: only one no slot kept and no
// follower joined is reused. A cache-less server coalesces followers
// onto leaders, and a caching server answers hits while its uncached
// flights (partial answers, uncacheable samples) recycle; every answer,
// under -race too, must be the backend's ranking for its own query.
func TestRecycledFlightsAnswerTheirOwnQuery(t *testing.T) {
	queries := []string{"49ers", "nfl draft", "vintage cars", "diabetes", "pinot noir", "piano"}
	for _, c := range []struct {
		name  string
		cache int
	}{{"cache off", 0}, {"cache on", 4096}} {
		t.Run(c.name, func(t *testing.T) {
			backend := &rankingPerQuery{unknownEvery: 5}
			s := New(backend, Config{CacheSize: c.cache})
			const workers, rounds = 8, 300
			var wg sync.WaitGroup
			var failed atomic.Bool
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range rounds {
						q := queries[(w+i)%len(queries)]
						deadline := time.Time{}
						if i%2 == 0 {
							deadline = time.Now().Add(time.Minute)
						}
						if c.cache > 0 && i%16 == 0 {
							backend.epoch.Add(1)
						}
						got, encoded, err := s.Answer(context.Background(), q, deadline)
						var pe *PartialError
						if err != nil && !errors.As(err, &pe) {
							t.Errorf("%q: %v", q, err)
							failed.Store(true)
							return
						}
						if want := wantRanking(q); !slices.Equal(got, want) || (pe != nil) != (q[0] == 'p') {
							t.Errorf("%q answered %v (partial %v), want its own ranking %v", q, got, pe != nil, want)
							failed.Store(true)
							return
						}
						if want, _ := json.Marshal(got); encoded != nil && !bytes.Equal(encoded, want) {
							t.Errorf("%q: hit bytes %s for %v", q, encoded, got)
							failed.Store(true)
							return
						}
						if failed.Load() {
							return
						}
					}
				}()
			}
			wg.Wait()
			checkInvariant(t, s)
			st := s.Stats()
			if st.Coalesced == 0 {
				t.Errorf("no request coalesced onto a flight: %+v", st)
			}
			if c.cache > 0 && st.CacheHits == st.Coalesced {
				t.Errorf("no request was a stored hit: %+v", st)
			}
		})
	}
}
