package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/race"
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
			experts, encoded, err := s.Answer(context.Background(), "Rust  go", false, time.Time{})
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
		// Search and SearchBaseline never ask for bytes.
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
			if _, encoded, err := off.Answer(context.Background(), "rust go", true, time.Time{}); err != nil || encoded != nil {
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
			experts, encoded, err := s.Answer(context.Background(), "niners", false, time.Time{})
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
	if _, _, err := s.Answer(ctx, "storm", false, deadline); err != nil {
		t.Fatal(err)
	}
	if !backend.armed || !backend.deadline.Equal(deadline) {
		t.Fatalf("leader's backend call ran under deadline %v (set: %v), want %v", backend.deadline, backend.armed, deadline)
	}
	// A hit is served even though its deadline passed long ago...
	past := time.Now().Add(-time.Hour)
	if _, encoded, err := s.Answer(ctx, "storm", false, past); err != nil || encoded == nil {
		t.Fatalf("warm hit under an expired deadline: bytes %q, err %v", encoded, err)
	}
	// ...the same deadline on a miss is the backend's to honour...
	if _, _, err := s.Answer(ctx, "calm", false, past); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cold miss under an expired deadline: err = %v, want DeadlineExceeded", err)
	}
	// ...and no deadline at all leaves the caller's context alone.
	if _, _, err := s.Answer(ctx, "breeze", false, time.Time{}); err != nil || backend.armed {
		t.Fatalf("zero deadline: err %v, backend saw a deadline: %v", err, backend.armed)
	}

	// A follower's wait is under its own deadline; the leader it gave
	// up on still completes and caches.
	backend.gate = make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.Answer(ctx, "gale", false, time.Now().Add(time.Hour))
		leaderDone <- err
	}()
	for backend.calls.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Answer(ctx, "gale", false, time.Now().Add(10*time.Millisecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower past its deadline: err = %v, want DeadlineExceeded", err)
	}
	close(backend.gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if _, encoded, err := s.Answer(ctx, "gale", false, past); err != nil || encoded == nil {
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
	s := New(frozenBackend(p), DefaultConfig())
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
			if _, _, err := s.Answer(ctx, c.query, false, deadline); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() { s.Answer(ctx, c.query, false, deadline) })
		// Under the race detector sync.Pool drops a quarter of the vector
		// buffers.
		if allocs != c.want && !(race.Enabled && allocs <= c.want+1) {
			t.Errorf("warm hit on %q allocates %v times, want %v", c.query, allocs, c.want)
		}
	}
}

// TestHitsUnderEpochChurn is the -race hammer for entries read outside
// the lock: concurrent hits on one key while the epoch advances and
// leaders refresh the entry. Every answer must be a ranking the key had
// by the time the request returned, an answer from the cache one it had
// no earlier than the request began (an invalidated entry is never
// served once the epoch moved), its bytes must be that ranking's
// encoding, and each entry is encoded at most once.
func TestHitsUnderEpochChurn(t *testing.T) {
	backend := &scriptedBackend{}
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
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				e0 := backend.epoch.Load()
				experts, encoded, err := s.Answer(context.Background(), "niners", false, time.Now().Add(time.Minute))
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
		}()
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
	checkInvariant(t, s)
}
