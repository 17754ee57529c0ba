package ingest_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/microblog"
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

// TestQuiescedEquivalence is the acceptance bar of the streaming
// subsystem: after ingesting posts T and quiescing, the live index must
// return bit-identical ranked experts to a cold core.Detector built
// over the same posts, for every query of every evaluation query set —
// on both the e# and the baseline path.
func TestQuiescedEquivalence(t *testing.T) {
	p, sets := testPipeline(t)
	posts := streamPosts(p, 41, 400)

	// A small threshold and fan-in force many seals and several
	// compactions, so the equivalence runs over a genuinely segmented
	// index, not a trivial tail.
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 32, CompactFanIn: 3})
	defer idx.Close()
	idx.IngestBatch(posts)
	idx.Quiesce()

	st := idx.Stats()
	if st.Seals == 0 || st.Compactions == 0 {
		t.Fatalf("test did not exercise sealing/compaction: %+v", st)
	}
	if st.NumTweets != p.Corpus.NumTweets()+len(posts) {
		t.Fatalf("index holds %d tweets, want %d", st.NumTweets, p.Corpus.NumTweets()+len(posts))
	}

	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	cold := core.NewDetector(p.Collection, p.Corpus.ExtendedWith(posts), p.Cfg.Online)

	total := 0
	for _, set := range sets {
		for _, q := range set.Queries {
			total++
			gotES, gotTrace := live.Search(q)
			wantES, wantTrace := cold.Search(q)
			expertsIdentical(t, "esharp", q, gotES, wantES)
			if gotTrace.MatchedTweets != wantTrace.MatchedTweets {
				t.Fatalf("esharp %q: live matched %d tweets, cold %d",
					q, gotTrace.MatchedTweets, wantTrace.MatchedTweets)
			}
			expertsIdentical(t, "baseline", q, live.SearchBaseline(q), cold.SearchBaseline(q))
		}
	}
	if total == 0 {
		t.Fatal("no queries in eval sets")
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
// Searchers check per-query invariants (monotonic epochs, monotonic
// tweet counts, result caps); afterwards the quiesced index must match
// a cold detector rebuilt from the index's own final content.
func TestConcurrentIngestSearchCompaction(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 16, CompactFanIn: 3})
	defer idx.Close()

	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	queries := []string{"49ers", "diabetes", "nfl", "dow futures", "coffee", "sarah palin", "zzz-none"}
	maxResults := p.Cfg.Online.Expertise.MaxResults

	const ingesters, perIngester = 2, 150
	const searchers, perSearcher = 4, 120
	var stop atomic.Bool
	errs := make(chan error, ingesters+searchers)
	var wg sync.WaitGroup

	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(uint64(100+g)))
			for i := 0; i < perIngester; i++ {
				idx.Ingest(stream.Next())
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
				q := queries[(g+i)%len(queries)]
				var experts []expertise.Expert
				if i%3 == 0 {
					experts = live.SearchBaseline(q)
				} else {
					experts, _ = live.Search(q)
				}
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
	for gid := p.Corpus.NumTweets(); gid < snap.NumTweets(); gid++ {
		all = append(all, *snap.Tweet(microblog.TweetID(gid)))
	}
	cold := core.NewDetector(p.Collection, microblog.FromTweets(p.World, all), p.Cfg.Online)
	for _, q := range queries {
		got, _ := live.Search(q)
		want, _ := cold.Search(q)
		expertsIdentical(t, "post-hammer", q, got, want)
	}
}

type errInvariant string

func (e errInvariant) Error() string { return string(e) }
