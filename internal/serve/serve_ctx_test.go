package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/textutil"
)

// searchCtx is Answer for the cases that only look at the ranking and
// carry whatever deadline they want on ctx itself.
func searchCtx(ctx context.Context, s *Server, q string) ([]expertise.Expert, error) {
	experts, _, err := s.Answer(ctx, q, time.Time{})
	return experts, err
}

// checkInvariant pins the counter contract: every request lands in
// exactly one of hits / misses / shed / rejected.
func checkInvariant(t *testing.T, s *Server) {
	t.Helper()
	st := s.Stats()
	if st.CacheHits+st.CacheMisses+st.Shed+st.Rejected != st.Queries {
		t.Fatalf("counter invariant broken: %+v", st)
	}
}

// TestSearchPermutationProperty is the cache-key canonicalization
// property test: for every multi-token query of every evaluation query
// set, a random permutation (and a duplicated token) must return
// bit-identical experts to the original — first against the detector
// directly (the AND predicate and domain lookup are order-invariant),
// then through a Server, where the permutation must also HIT the
// original's cache slot rather than recompute.
func TestSearchPermutationProperty(t *testing.T) {
	p := testPipeline(t)
	sets := eval.BuildQuerySets(p.World, p.Log, eval.SetSizes{PerCategory: 25, Top: 60})
	s := New(frozenBackend(p), DefaultConfig())
	rng := rand.New(rand.NewSource(9))

	multi := 0
	for _, set := range sets {
		for _, q := range set.Queries {
			toks := textutil.Tokenize(q)
			if len(toks) < 2 {
				continue
			}
			multi++
			want, _ := p.Detector.Search(q)
			perm := append([]string(nil), toks...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			perm = append(perm, perm[0]) // repetition is also in the class
			pq := strings.Join(perm, " ")

			if got, _ := p.Detector.Search(pq); !sameExperts(got, want) {
				t.Fatalf("detector: Search(%q) != Search(%q)", pq, q)
			}

			first, err := searchCtx(context.Background(), s, q)
			if err != nil {
				t.Fatalf("serve %q: %v", q, err)
			}
			misses0 := s.Stats().CacheMisses
			second, err := searchCtx(context.Background(), s, pq)
			if err != nil {
				t.Fatalf("serve %q: %v", pq, err)
			}
			if !sameExperts(first, want) || !sameExperts(second, want) {
				t.Fatalf("serve: %q / %q diverge from detector", q, pq)
			}
			// The permutation must hit the original's canonical slot —
			// zero additional misses. (Query sets overlap, so the
			// original itself may already have been warm.)
			if d := s.Stats().CacheMisses - misses0; d != 0 {
				t.Fatalf("%q after %q recomputed (%d extra misses), want shared canonical slot", pq, q, d)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-token queries in eval sets")
	}
	checkInvariant(t, s)
}

// TestPermutationsShareFlight pins singleflight coalescing across
// reorderings: a follower asking the reversed query while the leader
// is still computing coalesces onto the leader's flight — the backend
// runs once for the whole canonical class.
func TestPermutationsShareFlight(t *testing.T) {
	backend := &scriptedBackend{gate: make(chan struct{})}
	s := New(backend, DefaultConfig())

	results := make(chan []expertise.Expert, 2)
	go func() { results <- s.Search("zebra apple") }()
	for backend.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() { results <- s.Search("apple zebra zebra") }()
	for s.Stats().Queries < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(backend.gate)
	a, b := <-results, <-results

	if calls := backend.calls.Load(); calls != 1 {
		t.Fatalf("backend computed %d times for one canonical class, want 1", calls)
	}
	if !sameExperts(a, b) {
		t.Fatal("reordered duplicates returned different results")
	}
	st := s.Stats()
	if st.Coalesced != 1 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("want 1 miss + 1 coalesced hit, got %+v", st)
	}
	// And a third ordering afterwards is a plain cache hit.
	s.Search("  ZEBRA   apple ")
	if st := s.Stats(); st.CacheHits != 2 || backend.calls.Load() != 1 {
		t.Fatalf("post-flight reordering missed the shared slot: %+v", st)
	}
	checkInvariant(t, s)
}

// TestDegenerateQueriesRejected pins the admission guard: empty and
// over-long queries fail with the typed errors, never reach the
// backend, and land in Stats.Rejected.
func TestDegenerateQueriesRejected(t *testing.T) {
	backend := &scriptedBackend{}
	s := New(backend, DefaultConfig())
	var over strings.Builder
	for i := 0; i <= maxQueryTerms; i++ {
		fmt.Fprintf(&over, "t%d ", i)
	}

	for _, q := range []string{"", "   ", "\t\n"} {
		if _, err := searchCtx(context.Background(), s, q); !errors.Is(err, ErrEmptyQuery) {
			t.Fatalf("Answer(%q) err = %v, want ErrEmptyQuery", q, err)
		}
		if got := s.Search(q); got != nil {
			t.Fatalf("Search(%q) = %v, want nil", q, got)
		}
	}
	if _, err := searchCtx(context.Background(), s, over.String()); !errors.Is(err, ErrTooManyTerms) {
		t.Fatalf("%d tokens past the cap of %d not rejected", maxQueryTerms+1, maxQueryTerms)
	}
	// Duplicates count against the cap as typed, not canonicalized:
	// admission guards the raw request.
	if _, err := searchCtx(context.Background(), s, strings.Repeat("a ", maxQueryTerms+1)); !errors.Is(err, ErrTooManyTerms) {
		t.Fatal("repeated tokens past the cap not rejected")
	}
	if _, err := searchCtx(context.Background(), s, strings.Repeat("a ", maxQueryTerms)); err != nil {
		t.Fatalf("%d tokens at the cap rejected: %v", maxQueryTerms, err)
	}
	if backend.calls.Load() != 1 {
		t.Fatalf("backend ran %d times, want 1 (rejections must not reach it)", backend.calls.Load())
	}
	st := s.Stats()
	if st.Rejected != 8 {
		t.Fatalf("Rejected = %d, want 8: %+v", st.Rejected, st)
	}
	checkInvariant(t, s)
}

// TestLoadShedKeepsWarmHits pins the shedding priority: with one cold
// miss saturating MaxInflightMisses, further cold misses are shed with
// ErrOverloaded while warm cache hits keep being answered.
func TestLoadShedKeepsWarmHits(t *testing.T) {
	backend := &scriptedBackend{}
	cfg := DefaultConfig()
	cfg.MaxInflightMisses = 1
	s := New(backend, cfg)

	// Warm one entry while the backend is unconstrained.
	warm := s.Search("warm topic")
	backend.gate = make(chan struct{})

	done := make(chan []expertise.Expert, 1)
	go func() { done <- s.Search("cold one") }()
	for backend.calls.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	// A different cold query is shed...
	if _, err := searchCtx(context.Background(), s, "cold two"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cold miss under overload: err = %v, want ErrOverloaded", err)
	}
	// ...but the warm hit and the coalescing duplicate are not.
	if got, err := searchCtx(context.Background(), s, "warm topic"); err != nil || !sameExperts(got, warm) {
		t.Fatalf("warm hit under overload failed: %v", err)
	}
	close(backend.gate)
	<-done
	if calls := backend.calls.Load(); calls != 2 {
		t.Fatalf("backend ran %d times, want 2 (shed request must not queue)", calls)
	}
	st := s.Stats()
	if st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1: %+v", st.Shed, st)
	}
	checkInvariant(t, s)
}

// blockingCtxBackend parks every computation until the caller's
// context expires — a stand-in for a stalled shard behind the
// scatter-gather.
type blockingCtxBackend struct {
	scriptedBackend
	started atomic.Int64
}

func (b *blockingCtxBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	b.started.Add(1)
	<-ctx.Done()
	return nil, core.SearchTrace{Query: query}, ctx.Err()
}

// TestDeadlineExpiryIsWholeQueryError pins deadline propagation at the
// serving layer: a leader whose budget expires gets the context error,
// nothing is cached, and the next request recomputes.
func TestDeadlineExpiryIsWholeQueryError(t *testing.T) {
	backend := &blockingCtxBackend{}
	s := New(backend, DefaultConfig())

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := searchCtx(ctx, s, "storm"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	st := s.Stats()
	if st.CacheEntries != 0 {
		t.Fatal("an errored computation was cached")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, err := searchCtx(ctx2, s, "storm"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second attempt err = %v, want DeadlineExceeded (fresh computation)", err)
	}
	if n := backend.started.Load(); n != 2 {
		t.Fatalf("backend started %d times, want 2 — errors must not be cached", n)
	}
	checkInvariant(t, s)
}

// TestFollowerAbortsOnOwnDeadline pins the coalescing/deadline
// interaction: a follower whose own budget expires while the leader is
// still computing unblocks with its context error immediately; the
// leader is unaffected and its result lands in the cache.
func TestFollowerAbortsOnOwnDeadline(t *testing.T) {
	backend := &scriptedBackend{gate: make(chan struct{})}
	s := New(backend, DefaultConfig())

	leaderDone := make(chan []expertise.Expert, 1)
	go func() { leaderDone <- s.Search("niners") }()
	for backend.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := searchCtx(ctx, s, "niners")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("follower hung %v past its budget", waited)
	}
	close(backend.gate)
	want := <-leaderDone
	if got, err := searchCtx(context.Background(), s, "niners"); err != nil || !sameExperts(got, want) {
		t.Fatalf("leader's result not cached after follower abort: %v", err)
	}
	st := s.Stats()
	if st.CacheMisses != 2 || st.CacheHits != 1 {
		// leader miss + follower abort-miss, then one warm hit.
		t.Fatalf("want 2 misses + 1 hit, got %+v", st)
	}
	checkInvariant(t, s)
}

// errOnceCtxBackend fails its first computation with a budget error,
// then answers normally — the shape of a transient stall.
type errOnceCtxBackend struct {
	scriptedBackend
	failed atomic.Bool
	gate   chan struct{}
}

func (b *errOnceCtxBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	if b.failed.CompareAndSwap(false, true) {
		<-b.gate
		return nil, core.SearchTrace{}, context.DeadlineExceeded
	}
	return b.answer(query), core.SearchTrace{Query: query}, nil
}

// TestFollowerRetriesAfterLeaderError pins that a leader's failure is
// not inherited: the leader's budget error says nothing about the
// follower's, so the follower re-runs the query under its own context
// instead of reporting a 504 it never earned.
func TestFollowerRetriesAfterLeaderError(t *testing.T) {
	backend := &errOnceCtxBackend{gate: make(chan struct{})}
	s := New(backend, DefaultConfig())

	leaderErr := make(chan error, 1)
	go func() {
		_, err := searchCtx(context.Background(), s, "draft")
		leaderErr <- err
	}()
	for !backend.failed.Load() {
		time.Sleep(time.Millisecond)
	}
	followerDone := make(chan []expertise.Expert, 1)
	go func() {
		experts, err := searchCtx(context.Background(), s, "draft")
		if err != nil {
			t.Errorf("follower err = %v, want nil after retry", err)
		}
		followerDone <- experts
	}()
	for s.Stats().Queries < 2 {
		time.Sleep(time.Millisecond)
	}
	close(backend.gate)
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v, want DeadlineExceeded", err)
	}
	if got := <-followerDone; len(got) == 0 {
		t.Fatal("follower retry returned nothing")
	}
	if calls := backend.calls.Load(); calls != 1 {
		t.Fatalf("retry path ran the healthy backend %d times, want 1", calls)
	}
	checkInvariant(t, s)
}
