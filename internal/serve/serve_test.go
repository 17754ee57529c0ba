package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
)

var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeErr  error
)

func testPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = core.BuildPipeline(core.TinyPipelineConfig())
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

// frozenBackend serves the pipeline's frozen corpus the way a
// deployment would: as a streaming index nobody writes to. Tests
// compare its answers with p.Detector, the cold reference.
func frozenBackend(p *core.Pipeline) *core.LiveDetector {
	idx := ingest.New(p.Corpus, ingest.Config{DisableCompactor: true})
	return core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
}

func sameExperts(a, b []expertise.Expert) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServerConcurrentMixedQueries hammers one server with many
// goroutines issuing interleaved e# queries (run under
// `go test -race` by `make race`) and checks every response against
// the single-threaded detector.
func TestServerConcurrentMixedQueries(t *testing.T) {
	p := testPipeline(t)
	queries := []string{"49ers", "diabetes", "nfl", "dow futures", "coffee", "sarah palin", "zzz-none"}
	wantES := make(map[string][]expertise.Expert, len(queries))
	for _, q := range queries {
		wantES[q], _ = p.Detector.Search(q)
	}

	s := New(frozenBackend(p), Config{CacheSize: 4}) // small cache => constant churn
	const workers, perWorker = 8, 150
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				if got := s.Search(q); !sameExperts(got, wantES[q]) {
					errs <- errMismatchf(q, "esharp")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Queries != workers*perWorker {
		t.Fatalf("served %d queries, want %d", st.Queries, workers*perWorker)
	}
	if st.CacheHits+st.CacheMisses != st.Queries {
		t.Fatalf("hits %d + misses %d != queries %d", st.CacheHits, st.CacheMisses, st.Queries)
	}
	if st.CacheEntries > 4 {
		t.Fatalf("cache holds %d entries, cap is 4", st.CacheEntries)
	}
}

type errMismatch string

func (e errMismatch) Error() string { return string(e) }

func errMismatchf(q, kind string) error { return errMismatch(kind + " result mismatch for " + q) }

// TestCacheHitsAndEviction pins the LRU mechanics: repeats hit and
// the least recently used entry is the one evicted.
func TestCacheHitsAndEviction(t *testing.T) {
	p := testPipeline(t)
	s := New(frozenBackend(p), Config{CacheSize: 2})

	s.Search("49ers")   // miss -> cached
	s.Search("49ers")   // hit
	s.Search("  49ERS") // hit: keys are normalized
	if st := s.Stats(); st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("after repeats: %+v", st)
	}

	s.Search("coffee") // miss: a second key
	if st := s.Stats(); st.CacheMisses != 2 {
		t.Fatalf("a second key should miss: %+v", st)
	}

	// Touch the first entry, then insert a third key: the second entry
	// (now LRU) must be the one evicted.
	s.Search("49ers")
	s.Search("diabetes")
	if st := s.Stats(); st.CacheEntries != 2 {
		t.Fatalf("cache should stay at cap: %+v", st)
	}
	before := s.Stats().CacheMisses
	s.Search("49ers") // still cached
	if got := s.Stats().CacheMisses; got != before {
		t.Fatal("recently used entry was evicted")
	}
	s.Search("coffee") // evicted -> miss again
	if got := s.Stats().CacheMisses; got != before+1 {
		t.Fatal("LRU entry should have been evicted")
	}
}

func TestCacheDisabled(t *testing.T) {
	p := testPipeline(t)
	s := New(frozenBackend(p), Config{CacheSize: 0})
	for i := 0; i < 3; i++ {
		s.Search("49ers")
	}
	st := s.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 3 || st.CacheEntries != 0 {
		t.Fatalf("disabled cache should be all-miss: %+v", st)
	}
}

// scriptedBackend is a controllable Backend for cache-mechanics tests:
// a settable epoch (a one-component vector), a call counter, an
// optional gate that blocks computations until the test releases it,
// and an optional table of term-set keys by canonical query (a query
// the table lacks is its own term set, as a query outside every domain
// is). It never degrades or fails over.
type scriptedBackend struct {
	epoch    atomic.Uint64
	calls    atomic.Int64
	gate     chan struct{} // nil = never block
	termSets map[string]string
}

func (b *scriptedBackend) TermSetKey(canon string) string {
	if key, ok := b.termSets[canon]; ok {
		return key
	}
	return canon
}

func (b *scriptedBackend) answer(query string) []expertise.Expert {
	b.calls.Add(1)
	if b.gate != nil {
		<-b.gate
	}
	return []expertise.Expert{{User: 1, Score: float64(b.epoch.Load())}}
}

func (b *scriptedBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	return b.answer(query), core.SearchTrace{Query: query}, nil
}
func (b *scriptedBackend) EpochVector(dst []uint64) []uint64 { return append(dst[:0], b.epoch.Load()) }
func (b *scriptedBackend) PartialStats() (int64, int64)      { return 0, 0 }
func (b *scriptedBackend) Failovers() int64                  { return 0 }

// partialBackend is a scriptedBackend whose e# answers lack the shards
// in missing.
type partialBackend struct {
	scriptedBackend
	missing core.MissingShards
}

func (b *partialBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	return b.answer(query), core.SearchTrace{Query: query, Missing: b.missing}, nil
}

// TestPartialAnswerCoalescesNotCached pins the serving layer's half of
// "a partial answer is never passed off as whole": a follower coalesced
// onto a partial leader shares its answer and its *PartialError,
// nothing is cached, and the next request computes again.
func TestPartialAnswerCoalescesNotCached(t *testing.T) {
	backend := &partialBackend{scriptedBackend: scriptedBackend{gate: make(chan struct{})}, missing: 1 << 2}
	s := New(backend, DefaultConfig())
	ctx := context.Background()
	errs := make(chan error, 2)
	answer := func() {
		_, _, err := s.Answer(ctx, "49ers", time.Time{})
		errs <- err
	}
	go answer()
	for backend.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	go answer()
	for s.Stats().Queries < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the follower park on the flight
	close(backend.gate)
	for i := 0; i < 2; i++ {
		var pe *PartialError
		if err := <-errs; !errors.As(err, &pe) || pe.Missing != 1<<2 {
			t.Fatalf("answer %d: err %v, want shard 2 named missing", i, err)
		}
	}
	if st := s.Stats(); st.Coalesced != 1 || st.CacheEntries != 0 {
		t.Fatalf("want one coalesced follower and nothing cached: %+v", st)
	}
	if _, _, err := s.Answer(ctx, "49ers", time.Time{}); err == nil || backend.calls.Load() != 2 {
		t.Fatalf("a partial answer was served again: err %v after %d computations", err, backend.calls.Load())
	}
}

// TestSingleflightColdMisses pins the coalescing contract: N concurrent
// identical cold queries run the backend once; everyone gets the
// leader's result.
func TestSingleflightColdMisses(t *testing.T) {
	backend := &scriptedBackend{gate: make(chan struct{})}
	s := New(backend, DefaultConfig())

	const n = 8
	results := make(chan []expertise.Expert, n)
	// Start the leader alone and wait until it is inside the backend
	// (its flight is registered by then), so every follower launched
	// afterwards finds the in-flight computation.
	go func() { results <- s.Search("49ers") }()
	for backend.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < n; i++ {
		go func() { results <- s.Search("49ers") }()
	}
	// Wait until every follower has entered serve (the query counter
	// increments on entry), give them a beat to park on the flight,
	// then release the leader's computation.
	for s.Stats().Queries < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(backend.gate)
	var got [][]expertise.Expert
	for i := 0; i < n; i++ {
		got = append(got, <-results)
	}

	if calls := backend.calls.Load(); calls != 1 {
		t.Fatalf("backend computed %d times, want 1", calls)
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != n-1 {
		t.Fatalf("want 1 miss / %d hits, got %+v", n-1, st)
	}
	if st.Coalesced == 0 {
		t.Fatal("no request reported as coalesced")
	}
	for _, experts := range got {
		if !sameExperts(experts, got[0]) {
			t.Fatal("coalesced requests returned different results")
		}
	}
}

// panicOnceBackend panics on its first computation, then answers
// normally — modelling a backend bug a serving layer must survive.
type panicOnceBackend struct {
	scriptedBackend
	panicked atomic.Bool
}

func (b *panicOnceBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	if b.panicked.CompareAndSwap(false, true) {
		panic("backend bug")
	}
	return b.scriptedBackend.SearchContext(ctx, query)
}

// TestBackendPanicDoesNotWedgeKey pins the singleflight cleanup: a
// panicking leader must deregister its flight (so the key is not
// blocked forever) and must not cache its incomplete result.
func TestBackendPanicDoesNotWedgeKey(t *testing.T) {
	backend := &panicOnceBackend{}
	s := New(backend, DefaultConfig())

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("backend panic did not propagate")
			}
		}()
		s.Search("49ers")
	}()

	// The key must be usable again, recompute (no cached nil from the
	// panicked flight), and then cache normally.
	done := make(chan []expertise.Expert, 1)
	go func() { done <- s.Search("49ers") }()
	select {
	case experts := <-done:
		if len(experts) == 0 {
			t.Fatal("recomputed query returned the panicked flight's empty result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged: request after backend panic never returned")
	}
	s.Search("49ers")
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("key did not re-cache after panic recovery: %+v", st)
	}
}

// TestEpochInvalidation pins the staleness contract: bumping the
// backend's epoch turns every cached entry for the old view into a
// miss, counted under Invalidations.
func TestEpochInvalidation(t *testing.T) {
	backend := &scriptedBackend{}
	s := New(backend, DefaultConfig())

	s.Search("49ers") // miss -> cached under epoch 0
	s.Search("49ers") // hit
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 || st.Invalidations != 0 {
		t.Fatalf("before swap: %+v", st)
	}

	backend.epoch.Store(1) // snapshot swap: everything cached is stale
	experts := s.Search("49ers")
	st := s.Stats()
	if st.CacheMisses != 2 || st.Invalidations != 1 {
		t.Fatalf("stale entry not invalidated: %+v", st)
	}
	if experts[0].Score != 1 {
		t.Fatal("post-swap query served the pre-swap result")
	}
	s.Search("49ers") // re-cached under the new epoch
	if st := s.Stats(); st.CacheHits != 2 || st.Epoch != 1 {
		t.Fatalf("after re-cache: %+v", st)
	}
}

// TestStatsCountersUnderConcurrency hammers one server with goroutines
// over a churning-epoch backend and checks the counters stay coherent:
// hits + misses == queries, coalesced <= hits, entries <= cap.
func TestStatsCountersUnderConcurrency(t *testing.T) {
	backend := &scriptedBackend{}
	s := New(backend, Config{CacheSize: 3})
	queries := []string{"a", "b", "c", "d", "e"}

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				if (w+i)%7 == 0 {
					backend.epoch.Add(1) // concurrent snapshot swaps
				}
				s.Search(q)
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Queries != workers*perWorker {
		t.Fatalf("served %d queries, want %d", st.Queries, workers*perWorker)
	}
	if st.CacheHits+st.CacheMisses != st.Queries {
		t.Fatalf("hits %d + misses %d != queries %d", st.CacheHits, st.CacheMisses, st.Queries)
	}
	if st.Coalesced > st.CacheHits {
		t.Fatalf("coalesced %d exceeds hits %d", st.Coalesced, st.CacheHits)
	}
	if st.CacheEntries > 3 {
		t.Fatalf("cache holds %d entries, cap is 3", st.CacheEntries)
	}
	if st.CacheMisses != backend.calls.Load() {
		t.Fatalf("misses %d but backend computed %d times", st.CacheMisses, backend.calls.Load())
	}
}

// TestLiveServerInvalidatesOnIngest is the end-to-end epoch story: a
// server over a LiveDetector stops serving pre-ingest results as soon
// as the stream moves.
func TestLiveServerInvalidatesOnIngest(t *testing.T) {
	p := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.DefaultConfig())
	defer idx.Close()
	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	s := New(live, DefaultConfig())

	before := s.Search("49ers")
	s.Search("49ers")
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("frozen stretch should hit: %+v", st)
	}

	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(71))
	for i := 0; i < 50; i++ {
		idx.Ingest(stream.Next())
	}
	after := s.Search("49ers") // stale entry must be recomputed
	st := s.Stats()
	if st.Invalidations != 1 || st.CacheMisses != 2 {
		t.Fatalf("ingest did not invalidate: %+v", st)
	}
	// The recomputed result reflects the post-ingest view: check it
	// against a fresh uncached live search.
	want, _ := live.Search("49ers")
	if !sameExperts(after, want) {
		t.Fatal("post-ingest result does not match the live view")
	}
	_ = before
}

// scriptedVectorBackend is a scriptedBackend with per-component
// epochs, for pinning the vector-epoch cache mechanics without a real
// sharded index.
type scriptedVectorBackend struct {
	scriptedBackend
	components []atomic.Uint64
}

func newScriptedVectorBackend(n int) *scriptedVectorBackend {
	return &scriptedVectorBackend{components: make([]atomic.Uint64, n)}
}

func (b *scriptedVectorBackend) EpochVector(dst []uint64) []uint64 {
	dst = dst[:0]
	for i := range b.components {
		dst = append(dst, b.components[i].Load())
	}
	return dst
}

// TestVectorEpochSingleComponentInvalidation pins the sharded staleness
// contract: a cache entry written at vector epoch E must be invalidated
// as soon as exactly one component advances — and stay fresh while the
// vector is unchanged.
func TestVectorEpochSingleComponentInvalidation(t *testing.T) {
	backend := newScriptedVectorBackend(4)
	s := New(backend, DefaultConfig())

	s.Search("49ers") // miss -> cached under [0 0 0 0]
	s.Search("49ers") // hit
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 || st.Invalidations != 0 {
		t.Fatalf("before advance: %+v", st)
	}

	backend.components[2].Add(1) // one shard absorbs a post
	s.Search("49ers")
	st := s.Stats()
	if st.CacheMisses != 2 || st.Invalidations != 1 {
		t.Fatalf("single-component advance did not invalidate: %+v", st)
	}
	if len(st.EpochVector) != 4 || st.EpochVector[2] != 1 {
		t.Fatalf("stats vector wrong: %v", st.EpochVector)
	}

	s.Search("49ers") // re-cached under [0 0 1 0]
	if st := s.Stats(); st.CacheHits != 2 {
		t.Fatalf("after re-cache: %+v", st)
	}
	// Every remaining component advancing one at a time keeps
	// invalidating; an untouched vector keeps hitting.
	for i := 0; i < 4; i++ {
		backend.components[i].Add(1)
		s.Search("49ers")
	}
	if st := s.Stats(); st.Invalidations != 5 {
		t.Fatalf("per-component advances: %+v", st)
	}
}

// TestVectorSingleflightColdMisses pins that coalescing keys on the
// query, not the epoch vector: concurrent identical cold misses under a
// sharded backend still collapse onto one computation.
func TestVectorSingleflightColdMisses(t *testing.T) {
	backend := newScriptedVectorBackend(4)
	backend.gate = make(chan struct{})
	s := New(backend, DefaultConfig())

	const n = 8
	results := make(chan []expertise.Expert, n)
	go func() { results <- s.Search("49ers") }()
	for backend.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The index moves while the leader computes: followers sample newer
	// vectors but must still coalesce instead of recomputing.
	backend.components[1].Add(1)
	for i := 1; i < n; i++ {
		go func() { results <- s.Search("49ers") }()
	}
	for s.Stats().Queries < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(backend.gate)
	for i := 0; i < n; i++ {
		<-results
	}

	if calls := backend.calls.Load(); calls != 1 {
		t.Fatalf("backend computed %d times, want 1", calls)
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != n-1 || st.Coalesced == 0 {
		t.Fatalf("coalescing broke under vector epochs: %+v", st)
	}
	// The leader's entry carries its pre-compute vector [0 0 0 0]; the
	// post-ingest view [0 1 0 0] makes it conservatively stale.
	s.Search("49ers")
	if st := s.Stats(); st.Invalidations != 1 {
		t.Fatalf("mid-flight ingest should have staled the entry: %+v", st)
	}
}

// TestShardedServerInvalidatesOnIngest is the end-to-end vector story:
// a server over a ShardedLiveDetector stops serving pre-ingest results
// as soon as any single shard absorbs a post, and the recomputed result
// matches an uncached sharded search.
func TestShardedServerInvalidatesOnIngest(t *testing.T) {
	p := testPipeline(t)
	r := shard.New(p.Corpus, 4, ingest.DefaultConfig())
	defer r.Close()
	sharded := core.NewShardedLiveDetectorOver(p.Collection, r, p.Cfg.Online)
	s := New(sharded, DefaultConfig())

	s.Search("49ers")
	s.Search("49ers")
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("quiet stretch should hit: %+v", st)
	}

	// One post advances exactly one shard's component.
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(73))
	r.IngestBatch([]microblog.Post{stream.Next()})
	after := s.Search("49ers")
	st := s.Stats()
	if st.Invalidations != 1 || st.CacheMisses != 2 {
		t.Fatalf("single-shard ingest did not invalidate: %+v", st)
	}
	want, _ := sharded.Search("49ers")
	if !sameExperts(after, want) {
		t.Fatal("post-ingest result does not match the sharded view")
	}
	if len(st.EpochVector) != 4 {
		t.Fatalf("stats should carry the 4-component vector: %v", st.EpochVector)
	}
}

// failoverBackend is a scripted backend that reports replicated read
// failovers, like a ShardedLiveDetector over replica.Sets.
type failoverBackend struct {
	scriptedBackend
	failovers atomic.Int64
}

func (b *failoverBackend) Failovers() int64 { return b.failovers.Load() }

// TestFailoverStatsMirrored pins the serving-side surface of
// replication: the backend's failover counter is mirrored into Stats,
// so a dashboard reading serving stats sees replica failovers —
// degradation avoided — next to the PartialResults it would have
// suffered without replication.
func TestFailoverStatsMirrored(t *testing.T) {
	b := &failoverBackend{}
	s := New(b, DefaultConfig())
	if st := s.Stats(); st.Failovers != 0 {
		t.Fatalf("fresh server reports %d failovers", st.Failovers)
	}
	s.Search("49ers")
	b.failovers.Store(7)
	if st := s.Stats(); st.Failovers != 7 {
		t.Fatalf("stats mirror %d failovers, backend reports 7", st.Failovers)
	}

	plain := &scriptedBackend{}
	if st := New(plain, DefaultConfig()).Stats(); st.Failovers != 0 {
		t.Fatalf("non-replicated backend reports %d failovers", st.Failovers)
	}
}
