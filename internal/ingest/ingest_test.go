package ingest_test

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/diskseg"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/world"
)

var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeSets []eval.QuerySet
	pipeErr  error
)

func testPipeline(t testing.TB) (*core.Pipeline, []eval.QuerySet) {
	t.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = core.BuildPipeline(core.TinyPipelineConfig())
		if pipeErr == nil {
			pipeSets = eval.BuildQuerySets(pipe.World, pipe.Log,
				eval.SetSizes{PerCategory: 25, Top: 60})
		}
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe, pipeSets
}

func streamPosts(p *core.Pipeline, seed uint64, n int) []microblog.Post {
	s := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(seed))
	posts := make([]microblog.Post, n)
	for i := range posts {
		posts[i] = s.Next()
	}
	return posts
}

// userIDs returns every k-th user id below n, ascending — the user
// list Snapshot.StatsInto takes.
func userIDs(n, k int) []world.UserID {
	var ids []world.UserID
	for u := 0; u < n; u += k {
		ids = append(ids, world.UserID(u))
	}
	return ids
}

func expertsIdentical(t *testing.T, label, query string, got, want []expertise.Expert) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %q: %d results, cold reference has %d", label, query, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %q rank %d:\n  live %+v\n  cold %+v", label, query, i, got[i], want[i])
		}
	}
}

// TestSnapshotImmutableUnderWrites pins the snapshot contract: a view
// acquired before further ingestion keeps answering from its frozen
// prefix, while new views see the new posts and a higher epoch.
func TestSnapshotImmutableUnderWrites(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 16, CompactFanIn: 3})
	defer idx.Close()

	posts := streamPosts(p, 47, 120)
	idx.IngestBatch(posts[:40])
	old := idx.Snapshot()
	oldTweets := old.NumTweets()
	oldMatch := append([]microblog.TweetID(nil), old.Match("49ers")...)

	idx.IngestBatch(posts[40:])
	if got := old.NumTweets(); got != oldTweets {
		t.Fatalf("old snapshot grew from %d to %d tweets", oldTweets, got)
	}
	again := old.Match("49ers")
	if len(again) != len(oldMatch) {
		t.Fatalf("old snapshot match changed: %d vs %d ids", len(again), len(oldMatch))
	}
	for i := range oldMatch {
		if again[i] != oldMatch[i] {
			t.Fatalf("old snapshot match changed at %d", i)
		}
	}

	cur := idx.Snapshot()
	if cur.Epoch() <= old.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", old.Epoch(), cur.Epoch())
	}
	if cur.NumTweets() != p.Corpus.NumTweets()+len(posts) {
		t.Fatalf("current snapshot has %d tweets, want %d",
			cur.NumTweets(), p.Corpus.NumTweets()+len(posts))
	}
}

// TestLateFirstQueryFrozenPrefix pins the freeze-by-header-copy rule of
// the tail index against the case TestSnapshotImmutableUnderWrites
// misses (it queries the old view before the later writes): a view
// whose FIRST query comes only after the writer has appended to the
// same posting lists, sealed the view's generation and compacted its
// segment away must still answer from exactly its own prefix. One view
// is kept per batch and never queried until the stream is over and the
// index quiesced; then every view must equal a cold rebuild over its
// prefix, for every token of the stream and every user's denominators
// (StatsInto over all users, and over every third user, so that tail
// posts whose author or mention is not asked for are skipped). Half the
// views read their stats before their first match, half after: neither
// question may depend on the other having been asked.
func TestLateFirstQueryFrozenPrefix(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 64, CompactFanIn: 2})
	defer idx.Close()
	posts := streamPosts(p, 97, 600)

	type kept struct {
		snap *ingest.Snapshot
		n    int // stream posts visible
	}
	var views []kept
	for off := 0; off < len(posts); off += 7 {
		end := min(off+7, len(posts))
		idx.IngestBatch(posts[off:end])
		views = append(views, kept{idx.Snapshot(), end})
	}
	idx.Quiesce()
	if st := idx.Stats(); st.Seals < 9 || st.Compactions == 0 {
		t.Fatalf("test did not exercise sealing/compaction: %+v", st)
	}

	tokens := map[string]struct{}{}
	for _, post := range posts {
		for _, tok := range microblog.MakeTweet(post).Terms {
			tokens[tok] = struct{}{}
		}
	}
	withTail := 0
	lists := [][]world.UserID{userIDs(p.Corpus.NumUsers(), 1), userIDs(p.Corpus.NumUsers(), 3)}
	for vi, v := range views {
		cold := p.Corpus.ExtendedWith(posts[:v.n])
		if v.snap.NumTweets() != cold.NumTweets() {
			t.Fatalf("view after %d posts holds %d tweets, want %d", v.n, v.snap.NumTweets(), cold.NumTweets())
		}
		if v.n%64 != 0 {
			withTail++
		}
		stats := func() {
			for _, users := range lists {
				got, want := v.snap.StatsInto(nil, users), cold.StatsInto(nil, users)
				if len(got) != len(want) {
					t.Fatalf("view after %d posts: %d triples for %d users", v.n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("view after %d posts: user %d denominators %+v, the cold rebuild has %+v", v.n, users[i], got[i], want[i])
					}
				}
			}
		}
		if vi%2 == 0 {
			stats()
		}
		for tok := range tokens {
			got, want := v.snap.Match(tok), cold.Match(tok)
			if !slices.Equal(got, want) {
				t.Fatalf("view after %d posts, token %q: %d ids (last %v), cold rebuild has %d (last %v)",
					v.n, tok, len(got), got[max(len(got)-3, 0):], len(want), want[max(len(want)-3, 0):])
			}
		}
		if vi%2 == 1 {
			stats()
		}
	}
	if withTail < len(views)/2 {
		t.Fatalf("only %d of %d views had a tail to freeze", withTail, len(views))
	}
}

// TestTailStatsAgainstScan pins the generation's user index against
// the O(tail) scan it replaced (ScanStatsInto) and against a cold
// rebuild, over a hand-built stream that plants what per-user lists can
// get wrong: a post mentioning one user twice, a self-mention, a post
// mentioning nobody, and retweet counts of 0 and
// diskseg.MaxRetweetCount (twice for one author, so the running sum
// passes 32 bits). One post is ingested at a time and every view is
// asked twice: the moment it is published, when its generation is its
// prefix, and once the stream is over, when that generation has grown
// past the prefix and been sealed. Both times the three answers must
// agree for every user and for every third (users 4 and 5 then go
// unasked).
func TestTailStatsAgainstScan(t *testing.T) {
	p, _ := testPipeline(t)
	const seal = 8
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: seal, DisableCompactor: true})
	defer idx.Close()
	a, b, c := world.UserID(3), world.UserID(4), world.UserID(5)
	most := diskseg.MaxRetweetCount
	hand := []microblog.Post{
		{Author: a, Text: "49ers at the line", Mentions: []world.UserID{b, b}},
		{Author: b, Text: "me again", Mentions: []world.UserID{b}, RetweetCount: 7},
		{Author: a, Text: "nfl schedule", RetweetCount: most},
		{Author: c, Text: "two of you", Mentions: []world.UserID{a, b}, RetweetCount: 1},
		{Author: a, Text: "", Mentions: []world.UserID{a, c, c}, RetweetCount: most},
		{Author: c, Text: "quiet one"},
	}
	var posts []microblog.Post
	for range 3 { // 18 posts: two seals at 8 and 16, a two-post tail
		posts = append(posts, hand...)
	}

	lists := [][]world.UserID{userIDs(p.Corpus.NumUsers(), 1), userIDs(p.Corpus.NumUsers(), 3)}
	check := func(when string, snap *ingest.Snapshot, n int) {
		t.Helper()
		cold := p.Corpus.ExtendedWith(posts[:n])
		for _, users := range lists {
			got, scan, want := snap.StatsInto(nil, users), snap.ScanStatsInto(nil, users), cold.StatsInto(nil, users)
			for i := range want {
				if got[i] != want[i] || scan[i] != want[i] {
					t.Fatalf("%s, view after %d posts: user %d denominators %+v, the scan has %+v, the cold rebuild %+v",
						when, n, users[i], got[i], scan[i], want[i])
				}
			}
		}
	}
	var views []*ingest.Snapshot
	for n, post := range posts {
		idx.Ingest(post)
		views = append(views, idx.Snapshot())
		check("as published", views[n], n+1)
	}
	if st := idx.Stats(); st.Seals != 2 || st.ActiveLen != 2 {
		t.Fatalf("want two seals and a two-post tail: %+v", st)
	}
	for n, v := range views {
		check("after the seals", v, n+1)
	}
}

// TestFirstSearchAfterWriteAllocs pins that the first search of a
// fresh snapshot allocates exactly what a repeat search of it does:
// the view reads its tail where the writer keeps it — the term lists
// and the per-user lists, under the generation's lock — so there is no
// per-view state to build on first use (a
// rebuild of the tail index allocated ≈ 165 times, a clone of it ≈ 8).
// Measured directly: after each one-post write, only the allocations
// made while the new snapshot answers — term matches into the caller's
// warm buffers, a user list's denominators into a warm buffer — are
// counted, so neither the write nor any pooled search scratch (which
// the race detector drops at random, and a GC at will) is in the
// figure. A second round of the same questions is the control, and
// both rounds must allocate nothing: warm buffers, no per-call state.
// The medians over the rounds are compared — the rest of the process
// allocates a few times over a run, in either window.
func TestFirstSearchAfterWriteAllocs(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 4096, DisableCompactor: true})
	defer idx.Close()
	posts := streamPosts(p, 101, 1200)
	idx.IngestBatch(posts[:256]) // a non-empty tail

	queries := [][]string{{"49ers"}, {"49ers", "nfl"}}
	ids := make([]microblog.TweetID, 0, 4096)
	local := make([]microblog.TweetID, 0, 4096)
	users := userIDs(p.Corpus.NumUsers(), 7)
	stats := make([]microblog.UserStats, 0, len(users))
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	const writes = 400
	first, again := make([]uint64, writes), make([]uint64, writes)
	for i := 0; i < writes; i++ {
		idx.Ingest(posts[256+i])
		snap := idx.Snapshot()
		ask := func() {
			for _, tokens := range queries {
				snap.MatchTokensAppend(tokens, ids[:0], local[:0])
			}
			snap.StatsInto(stats[:0], users)
		}
		m0 := mallocs()
		ask()
		m1 := mallocs()
		ask()
		first[i], again[i] = m1-m0, mallocs()-m1
	}
	slices.Sort(first)
	slices.Sort(again)
	t.Logf("first questions of a fresh view: median %d allocs (max %d); asked again: median %d (max %d)",
		first[writes/2], first[writes-1], again[writes/2], again[writes-1])
	if first[writes/2] != again[writes/2] || again[writes/2] != 0 {
		t.Fatalf("a fresh view's first questions allocated %d times (median), the same questions again %d times (want 0 and 0)",
			first[writes/2], again[writes/2])
	}
}

// TestCompactionPreservesResults compares a fragmented index (compactor
// disabled) with a fully compacted one over identical posts: same
// matches, same ranked experts, fewer segments.
func TestCompactionPreservesResults(t *testing.T) {
	p, sets := testPipeline(t)
	posts := streamPosts(p, 53, 360)

	frag := ingest.New(p.Corpus, ingest.Config{SealThreshold: 24, CompactFanIn: 3, DisableCompactor: true})
	defer frag.Close()
	frag.IngestBatch(posts)

	comp := ingest.New(p.Corpus, ingest.Config{SealThreshold: 24, CompactFanIn: 3})
	defer comp.Close()
	comp.IngestBatch(posts)
	comp.Quiesce()

	fs, cs := frag.Snapshot(), comp.Snapshot()
	if fs.NumSegments() <= cs.NumSegments() {
		t.Fatalf("compaction did not reduce segments: %d vs %d", fs.NumSegments(), cs.NumSegments())
	}
	dFrag := core.NewLiveDetector(p.Collection, frag, p.Cfg.Online)
	dComp := core.NewLiveDetector(p.Collection, comp, p.Cfg.Online)
	for _, set := range sets {
		for _, q := range set.Queries {
			want, _ := dFrag.Search(q)
			got, _ := dComp.Search(q)
			expertsIdentical(t, "compacted", q, got, want)
		}
	}
}

// TestConcurrentIngestSearchCompaction is the -race hammer: concurrent
// ingesters, searchers and the background compactor share one index.
// Searchers rank over fresh views — matching in the writer's tail
// lists and summing the tail's denominators while the writers append to
// that tail and seal it every 16 posts — and check per-query invariants
// (monotonic epochs, monotonic tweet counts, result caps); holders keep
// a snapshot unqueried across at least two further seals and only then
// ask it its first questions (matches and every user's StatsInto),
// while the writers are still appending to the generation after next.
// Afterwards the quiesced index must match a cold detector rebuilt from
// the index's own final content, and every late answer must be that
// cold corpus's answer cut at the view's own prefix.
func TestConcurrentIngestSearchCompaction(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 16, CompactFanIn: 3})
	defer idx.Close()

	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	queries := []string{"49ers", "diabetes", "nfl", "dow futures", "coffee", "sarah palin", "zzz-none"}
	maxResults := p.Cfg.Online.Expertise.MaxResults

	const ingesters, perIngester = 2, 150
	const searchers, perSearcher = 4, 120
	const holders = 2
	var stop atomic.Bool
	errs := make(chan error, ingesters+searchers)
	var wg, writers sync.WaitGroup

	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		writers.Add(1)
		go func(g int) {
			defer wg.Done()
			defer writers.Done()
			stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(uint64(100+g)))
			for i := 0; i < perIngester; i++ {
				idx.Ingest(stream.Next())
			}
		}(g)
	}
	written := make(chan struct{})
	go func() { writers.Wait(); close(written) }()

	// lateAnswer is what a held view said when it was finally asked.
	type lateAnswer struct {
		tweets  int
		matches [][]microblog.TweetID // per query
		stats   []microblog.UserStats // StatsInto over every user
	}
	late := make([][]lateAnswer, holders)
	for g := 0; g < holders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for done := false; !done; {
				snap := idx.Snapshot()
				sealsThen := idx.Stats().Seals
				for idx.Stats().Seals < sealsThen+2 && !done {
					select {
					case <-written:
						done = true
					default:
						runtime.Gosched()
					}
				}
				a := lateAnswer{tweets: snap.NumTweets()}
				for _, q := range queries {
					a.matches = append(a.matches, snap.Match(q))
				}
				a.stats = snap.StatsInto(nil, userIDs(snap.NumUsers(), 1))
				late[g] = append(late[g], a)
			}
		}(g)
	}
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastEpoch uint64
			var lastTweets int
			for i := 0; i < perSearcher && !stop.Load(); i++ {
				snap := idx.Snapshot()
				if snap.Epoch() < lastEpoch {
					errs <- errInvariant("epoch went backwards")
					stop.Store(true)
					return
				}
				if snap.NumTweets() < lastTweets {
					errs <- errInvariant("tweet count went backwards")
					stop.Store(true)
					return
				}
				lastEpoch, lastTweets = snap.Epoch(), snap.NumTweets()
				experts, _ := live.Search(queries[(g+i)%len(queries)])
				if maxResults > 0 && len(experts) > maxResults {
					errs <- errInvariant("result cap exceeded")
					stop.Store(true)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	idx.Quiesce()
	st := idx.Stats()
	if st.Ingested != ingesters*perIngester {
		t.Fatalf("ingested %d posts, want %d", st.Ingested, ingesters*perIngester)
	}

	// Structural self-check: a cold detector over the index's own final
	// content (base + every ingested tweet in global order) must agree
	// with the live path — postings, counters and ranking all intact
	// after the concurrent seals and compactions.
	snap := idx.Snapshot()
	all := append([]microblog.Tweet(nil), p.Corpus.Tweets()...)
	snap.Scan(p.Corpus.NumTweets(), snap.NumTweets(), func(tw *microblog.Tweet) { all = append(all, *tw) })
	coldCorpus := microblog.FromTweets(p.World, all)
	cold := core.NewDetector(p.Collection, coldCorpus, p.Cfg.Online)
	for _, q := range queries {
		got, _ := live.Search(q)
		want, _ := cold.Search(q)
		expertsIdentical(t, "post-hammer", q, got, want)
	}

	// Global ids are stream positions, so a held view is a prefix of
	// the final content and its answers are the cold answers cut there.
	asked := 0
	for _, answers := range late {
		for _, a := range answers {
			asked++
			for qi, q := range queries {
				want := coldCorpus.Match(q)
				cut, _ := slices.BinarySearch(want, microblog.TweetID(a.tweets))
				if !slices.Equal(a.matches[qi], want[:cut]) {
					t.Fatalf("held view of %d tweets, %q: %d ids, the cold prefix has %d",
						a.tweets, q, len(a.matches[qi]), cut)
				}
			}
			want := make([]microblog.UserStats, len(a.stats))
			for _, tw := range all[:a.tweets] {
				want[tw.Author].Tweets++
				want[tw.Author].Retweets += tw.RetweetCount
				for _, m := range tw.Mentions {
					want[m].Mentions++
				}
			}
			if !slices.Equal(a.stats, want) {
				t.Fatalf("held view of %d tweets: per-user denominators differ from the cold prefix", a.tweets)
			}
		}
	}
	if asked < holders {
		t.Fatalf("only %d held views were queried late", asked)
	}
	t.Logf("%d held views queried late", asked)
}

type errInvariant string

func (e errInvariant) Error() string { return string(e) }
