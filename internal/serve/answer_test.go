package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/race"
	"repro/internal/textutil"
)

// rankingBackend is scriptedBackend with a chosen ranking and a record
// of the deadline its last computation ran under.
type rankingBackend struct {
	scriptedBackend
	ranking []expertise.Expert

	mu       sync.Mutex
	deadline time.Time
	armed    bool
}

func (b *rankingBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	b.mu.Lock()
	b.deadline, b.armed = ctx.Deadline()
	b.mu.Unlock()
	b.answer(query)
	return b.ranking, core.SearchTrace{Query: query}, ctx.Err()
}

// TestAnswerBytesByOutcome pins which outcomes carry the ranking's
// JSON and that it is built once per entry: a miss has none, the first
// hit encodes, every later hit shares that very slice, and a refreshed
// entry starts over.
func TestAnswerBytesByOutcome(t *testing.T) {
	for _, ranking := range [][]expertise.Expert{nil, {}, {{User: 4, Score: 1.5, OnTopicTweets: 2}, {User: 9, Score: -0.25}}} {
		want, _ := json.Marshal(ranking)
		if len(ranking) == 0 {
			want = []byte("[]") // never null
		}
		backend := &rankingBackend{ranking: ranking}
		s := New(backend, DefaultConfig())
		ask := func() ([]expertise.Expert, []byte) {
			t.Helper()
			experts, encoded, err := s.Answer(context.Background(), "Rust  go", time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameExperts(experts, ranking) {
				t.Fatalf("experts = %v, want %v", experts, ranking)
			}
			return experts, encoded
		}
		if _, encoded := ask(); encoded != nil {
			t.Fatalf("a miss returned bytes %q: encoding belongs to the first hit", encoded)
		}
		_, first := ask()
		_, later := ask()
		if !bytes.Equal(first, want) || !bytes.Equal(later, want) {
			t.Fatalf("hit bytes %q / %q, want %q", first, later, want)
		}
		if &first[0] != &later[0] {
			t.Fatal("a later hit re-encoded the entry instead of sharing the first hit's bytes")
		}
		// Search never asks for bytes.
		s.Search("go rust")
		backend.epoch.Add(1)
		if _, encoded := ask(); encoded != nil {
			t.Fatalf("the miss after an epoch move returned the invalidated entry's bytes %q", encoded)
		}
		if _, refreshed := ask(); !bytes.Equal(refreshed, want) || &refreshed[0] == &first[0] {
			t.Fatalf("refreshed entry's bytes %q (shared with the old entry: %v)", refreshed, &refreshed[0] == &first[0])
		}
		if st := s.Stats(); st.CacheHits != 4 || st.CacheMisses != 2 || st.Invalidations != 1 {
			t.Fatalf("want 4 hits, 2 misses, 1 invalidation: %+v", st)
		}

		// A cache-less server and a coalesced follower have no entry to
		// keep bytes in.
		off := New(&rankingBackend{ranking: ranking}, Config{})
		for i := 0; i < 3; i++ {
			if _, encoded, err := off.Answer(context.Background(), "rust go", time.Time{}); err != nil || encoded != nil {
				t.Fatalf("cache off: bytes %q, err %v", encoded, err)
			}
		}
	}
}

// TestCoalescedFollowerHasNoBytes: the follower shares the leader's
// experts, not a cache entry.
func TestCoalescedFollowerHasNoBytes(t *testing.T) {
	for attempt := 0; ; attempt++ {
		backend := &scriptedBackend{gate: make(chan struct{})}
		s := New(backend, DefaultConfig())
		type result struct {
			experts []expertise.Expert
			encoded []byte
		}
		results := make(chan result, 2)
		ask := func() {
			experts, encoded, err := s.Answer(context.Background(), "niners", time.Time{})
			if err != nil {
				t.Error(err)
			}
			results <- result{experts, encoded}
		}
		go ask()
		for backend.calls.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		go ask()
		for s.Stats().Queries < 2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		close(backend.gate)
		a, b := <-results, <-results
		if s.Stats().Coalesced == 0 {
			// The second request had not parked yet and hit the cache.
			if attempt == 50 {
				t.Fatal("no follower ever coalesced")
			}
			continue
		}
		if a.encoded != nil || b.encoded != nil {
			t.Fatalf("leader/follower returned bytes %q / %q", a.encoded, b.encoded)
		}
		if !sameExperts(a.experts, b.experts) || len(a.experts) == 0 {
			t.Fatal("follower's experts differ from the leader's")
		}
		return
	}
}

// TestBudgetArmedOnlyOnMiss pins where the deadline Answer is handed
// starts to count: never on a hit, on the backend's context for a
// leader, and on the wait for a follower.
func TestBudgetArmedOnlyOnMiss(t *testing.T) {
	backend := &rankingBackend{ranking: []expertise.Expert{{User: 1, Score: 1}}}
	s := New(backend, DefaultConfig())
	ctx := context.Background()

	deadline := time.Now().Add(time.Hour)
	if _, _, err := s.Answer(ctx, "storm", deadline); err != nil {
		t.Fatal(err)
	}
	if !backend.armed || !backend.deadline.Equal(deadline) {
		t.Fatalf("leader's backend call ran under deadline %v (set: %v), want %v", backend.deadline, backend.armed, deadline)
	}
	// A hit is served even though its deadline passed long ago...
	past := time.Now().Add(-time.Hour)
	if _, encoded, err := s.Answer(ctx, "storm", past); err != nil || encoded == nil {
		t.Fatalf("warm hit under an expired deadline: bytes %q, err %v", encoded, err)
	}
	// ...the same deadline on a miss is the backend's to honour...
	if _, _, err := s.Answer(ctx, "calm", past); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cold miss under an expired deadline: err = %v, want DeadlineExceeded", err)
	}
	// ...and no deadline at all leaves the caller's context alone.
	if _, _, err := s.Answer(ctx, "breeze", time.Time{}); err != nil || backend.armed {
		t.Fatalf("zero deadline: err %v, backend saw a deadline: %v", err, backend.armed)
	}

	// A follower's wait is under its own deadline; the leader it gave
	// up on still completes and caches.
	backend.gate = make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.Answer(ctx, "gale", time.Now().Add(time.Hour))
		leaderDone <- err
	}()
	for backend.calls.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Answer(ctx, "gale", time.Now().Add(10*time.Millisecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower past its deadline: err = %v, want DeadlineExceeded", err)
	}
	close(backend.gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if _, encoded, err := s.Answer(ctx, "gale", past); err != nil || encoded == nil {
		t.Fatalf("leader's result not cached after the follower gave up: bytes %q, err %v", encoded, err)
	}
	checkInvariant(t, s)
}

// TestWarmHitAllocs pins the serving layer's share of a warm hit: none
// for a query that arrives in normal form with its tokens in canonical
// order — no token slice, no joined key, no context, no epoch-vector
// buffer, no encode — and exactly the strings admission has to build
// otherwise.
func TestWarmHitAllocs(t *testing.T) {
	p := testPipeline(t)
	backend := frozenBackend(p)
	s := New(backend, DefaultConfig())
	ctx, deadline := context.Background(), time.Now().Add(time.Hour)
	for _, c := range []struct {
		query string
		want  float64
	}{
		{"49ers", 0},
		{"49ers schedule", 0},
		{"schedule 49ers", 1},     // the canonical key
		{"  Schedule  49ERS ", 4}, // lower-cased copy, fields, normal form, canonical key
	} {
		for i := 0; i < 2; i++ {
			if _, _, err := s.Answer(ctx, c.query, deadline); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() { s.Answer(ctx, c.query, deadline) })
		// Under the race detector sync.Pool drops a quarter of the vector
		// buffers.
		if allocs != c.want && !(race.Enabled && allocs <= c.want+1) {
			t.Errorf("warm hit on %q allocates %v times, want %v", c.query, allocs, c.want)
		}
	}
	// A query answered from a sibling's slot is a warm hit like any
	// other: the admission table hands out its own key string.
	key := backend.TermSetKey("49ers")
	for _, sibling := range backend.Expand("49ers") {
		if backend.TermSetKey(sibling) != key {
			continue // not in canonical form, or beyond the expansion cap
		}
		misses := s.Stats().CacheMisses
		allocs := testing.AllocsPerRun(200, func() { s.Answer(ctx, sibling, deadline) })
		if allocs != 0 && !(race.Enabled && allocs <= 1) || s.Stats().CacheMisses != misses {
			t.Errorf("%q, a sibling of the cached 49ers: %v allocs, %d misses; want a free hit", sibling, allocs, s.Stats().CacheMisses-misses)
		}
		return
	}
	t.Error("49ers has no sibling query in the tiny collection")
}

// TestHitsUnderEpochChurn is the -race hammer for results read outside
// the lock: concurrent hits on one key — reached through three sibling
// queries of one term set — while the epoch advances, the slot is
// emptied in place and leaders refill it. Every answer must be a
// ranking the key had by the time the request returned, an answer from
// the cache one it had no earlier than the request began (an
// invalidated result is never served once the epoch moved), its bytes
// must be that ranking's encoding, each result is encoded at most once,
// and the siblings never hold more than the one slot.
func TestHitsUnderEpochChurn(t *testing.T) {
	siblings := []string{"niners", "49ers", "sf 49ers"}
	backend := &scriptedBackend{termSets: map[string]string{}}
	for _, q := range siblings {
		backend.termSets[textutil.Canonical(q)] = "49ers\tniners\t49ers sf"
	}
	s := New(backend, DefaultConfig())

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
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	// bytesOf maps each ranking served with bytes (by the identity of
	// its backing array: one backend call, one entry) to the identity of
	// those bytes.
	var mu sync.Mutex
	bytesOf := make(map[*expertise.Expert]*byte)
	const readers, perReader = 6, 2000
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				e0 := backend.epoch.Load()
				experts, encoded, err := s.Answer(context.Background(), siblings[(r+i)%len(siblings)], time.Now().Add(time.Minute))
				e1 := backend.epoch.Load()
				if err != nil || len(experts) != 1 {
					t.Errorf("Answer = %v, %v", experts, err)
					return
				}
				// scriptedBackend scores a ranking with the epoch it was
				// computed at. Only a stored entry promises at >= e0: a
				// coalesced follower shares whatever view its leader
				// started under.
				at := uint64(experts[0].Score)
				if at > e1 || (encoded != nil && at < e0) {
					t.Errorf("served the ranking of epoch %d (from the cache: %v) to a request that ran over epochs %d..%d", at, encoded != nil, e0, e1)
					return
				}
				if encoded == nil {
					continue
				}
				if want, _ := json.Marshal(experts); !bytes.Equal(encoded, want) {
					t.Errorf("bytes %s do not encode the experts they came with (%s)", encoded, want)
					return
				}
				mu.Lock()
				if prev, ok := bytesOf[&experts[0]]; ok && prev != &encoded[0] {
					t.Errorf("entry of epoch %d was encoded twice", uint64(experts[0].Score))
				}
				bytesOf[&experts[0]] = &encoded[0]
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	st := s.Stats()
	if st.Invalidations == 0 || len(bytesOf) < 2 {
		t.Fatalf("hammer never refreshed a hit entry: %d encoded entries, %+v", len(bytesOf), st)
	}
	if int64(len(bytesOf)) > backend.calls.Load() {
		t.Fatalf("%d encodings for %d computed entries", len(bytesOf), backend.calls.Load())
	}
	if st.CacheEntries != 1 {
		t.Fatalf("%d sibling queries of one term set hold %d slots, want 1", len(siblings), st.CacheEntries)
	}
	checkInvariant(t, s)
}

// TestSlotOutlivesItsContents pins the slot lifecycle and what
// Stats.CacheEntries counts under it: slots, filled or not. An epoch
// move empties a slot in place — one invalidation, however often the
// emptied slot is looked up before a computation succeeds — the refill
// reuses it, and LRU eviction still bounds the slots at CacheSize,
// taking emptied and stale slots like any other.
func TestSlotOutlivesItsContents(t *testing.T) {
	backend := &rankingBackend{ranking: []expertise.Expert{{User: 1, Score: 1}}}
	s := New(backend, Config{CacheSize: 2})
	past := time.Now().Add(-time.Hour)
	ask := func(query string, deadline time.Time) error {
		_, _, err := s.Answer(context.Background(), query, deadline)
		return err
	}
	want := func(step string, entries int, invalidations, misses, hits int64) {
		t.Helper()
		if st := s.Stats(); st.CacheEntries != entries || st.Invalidations != invalidations || st.CacheMisses != misses || st.CacheHits != hits {
			t.Fatalf("%s: want %d slots, %d invalidations, %d misses, %d hits; got %+v", step, entries, invalidations, misses, hits, st)
		}
	}
	ask("a", time.Time{})
	ask("b", time.Time{})
	want("two keys cached", 2, 0, 2, 0)

	// The epoch moves and a's recomputation fails twice (its budget is
	// already spent): the slot is emptied once and stays.
	backend.epoch.Add(1)
	for i := 0; i < 2; i++ {
		if err := ask("a", past); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("refill under an expired deadline: err = %v", err)
		}
	}
	want("a emptied, b stale and not yet looked up", 2, 1, 4, 0)
	ask("a", time.Time{})
	ask("a", time.Time{})
	want("a refilled in place and hit", 2, 1, 5, 1)

	// A third key evicts the least recently used slot (b's); b coming
	// back is a plain miss — nothing left to invalidate — and evicts a's.
	ask("c", time.Time{})
	want("c evicts b", 2, 1, 6, 1)
	ask("b", time.Time{})
	want("b evicts a", 2, 1, 7, 1)

	// An emptied slot is evicted like any other: c is emptied where it
	// stands (behind b), d takes its place.
	backend.epoch.Add(1)
	if err := ask("c", past); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("refill under an expired deadline: err = %v", err)
	}
	want("c emptied", 2, 2, 8, 1)
	ask("d", time.Time{})
	ask("c", time.Time{})
	want("d evicted the emptied c, c evicted the stale b", 2, 2, 10, 1)
	checkInvariant(t, s)
}

// fixedBackend answers every search with one ranking and allocates
// nothing doing so, so AllocsPerRun over a Server on top of it counts
// the serving layer's allocations alone.
type fixedBackend struct {
	scriptedVectorBackend
	ranking []expertise.Expert
}

func (b *fixedBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	return b.ranking, core.SearchTrace{}, nil
}

// TestRefillAllocs pins what the serving layer allocates per backend
// computation: the result — flight and slot content in one — and
// nothing else. The slot (map cell, list element) survived the
// invalidation, the epoch vector sits inside the result for up to four
// shards, and a flight nobody joins makes no channel.
func TestRefillAllocs(t *testing.T) {
	for _, c := range []struct {
		name          string
		shards, cache int
		want          float64
	}{
		{"refill of an invalidated slot, 1 shard", 1, 4096, 1},
		{"refill of an invalidated slot, 4 shards", 4, 4096, 1},
		{"refill of an invalidated slot, 5 shards: the vector spills", 5, 4096, 2},
		{"cache off", 2, 0, 1},
	} {
		backend := &fixedBackend{ranking: []expertise.Expert{{User: 1, Score: 1}}}
		backend.components = make([]atomic.Uint64, c.shards)
		s := New(backend, Config{CacheSize: c.cache})
		s.Search("niners")
		const runs = 200
		allocs := testing.AllocsPerRun(runs, func() {
			backend.components[c.shards-1].Add(1)
			s.Search("niners")
		})
		// Under the race detector sync.Pool drops a quarter of the vector
		// buffers.
		if allocs != c.want && !(race.Enabled && allocs <= c.want+1) {
			t.Errorf("%s: %v allocations per miss in serve, want %v", c.name, allocs, c.want)
		}
		st := s.Stats()
		if st.CacheMisses != runs+2 || st.CacheHits != 0 {
			t.Errorf("%s: not every request recomputed: %+v", c.name, st)
		}
		if c.cache > 0 && (st.Invalidations != runs+1 || st.CacheEntries != 1) {
			t.Errorf("%s: want one slot invalidated %d times: %+v", c.name, runs+1, st)
		}
	}
}
