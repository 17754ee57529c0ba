package diskseg_test

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/diskseg"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/world"
)

// writeCorpus spills a generated tiny corpus and opens it back.
func writeCorpus(t testing.TB, opts diskseg.Options) (*microblog.Corpus, *diskseg.Segment) {
	t.Helper()
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	path := filepath.Join(t.TempDir(), "seg.esg")
	if err := diskseg.Write(path, c); err != nil {
		t.Fatal(err)
	}
	s, err := diskseg.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Release)
	return c, s
}

// vocabulary collects every distinct token of the corpus.
func vocabulary(c *microblog.Corpus) []string {
	set := map[string]struct{}{}
	for i := 0; i < c.NumTweets(); i++ {
		for _, tok := range c.Tweet(microblog.TweetID(i)).Terms {
			set[tok] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for tok := range set {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// TestRoundTripPostings pins the core property of the format: every
// posting list decodes bit-identically to the in-heap index it was
// written from, for the whole vocabulary — through the hot cache and
// with caching disabled (pure decode off the map).
func TestRoundTripPostings(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache int
	}{{"cached", 0}, {"uncached", -1}, {"tiny-cache", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			c, s := writeCorpus(t, diskseg.Options{BlockCache: tc.cache})
			if s.NumTweets() != c.NumTweets() || s.NumUsers() != c.NumUsers() {
				t.Fatalf("counts: disk %d/%d, heap %d/%d",
					s.NumTweets(), s.NumUsers(), c.NumTweets(), c.NumUsers())
			}
			var buf []microblog.TweetID
			for _, tok := range vocabulary(c) {
				want := c.Postings(tok)
				// Twice: the second pass hits the cache (when enabled)
				// and must not differ.
				for pass := 0; pass < 2; pass++ {
					buf = s.Postings(tok, buf)
					if len(buf) != len(want) {
						t.Fatalf("%q pass %d: %d postings, want %d", tok, pass, len(buf), len(want))
					}
					for i := range want {
						if buf[i] != want[i] {
							t.Fatalf("%q pass %d: posting %d = %d, want %d", tok, pass, i, buf[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestMatchAppendEquivalence checks the MatchAppend contract against
// the corpus for single- and multi-token queries, including misses.
func TestMatchAppendEquivalence(t *testing.T) {
	c, s := writeCorpus(t, diskseg.Options{})
	vocab := vocabulary(c)
	queries := []string{"", "zzz-no-such-token", vocab[0], vocab[len(vocab)/2]}
	// Multi-token queries with real intersections: pair adjacent
	// vocabulary terms and a few real tweet texts (every tweet matches
	// its own full text).
	for i := 0; i+1 < len(vocab) && i < 40; i += 7 {
		queries = append(queries, vocab[i]+" "+vocab[i+1])
	}
	for i := 0; i < c.NumTweets() && i < 60; i += 11 {
		queries = append(queries, c.Tweet(microblog.TweetID(i)).Text)
	}
	var got, want []microblog.TweetID
	for _, q := range queries {
		want = c.MatchAppend(q, want)
		for pass := 0; pass < 2; pass++ {
			got = s.MatchAppend(q, got)
			if len(got) != len(want) {
				t.Fatalf("%q pass %d: %d matches, want %d", q, pass, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%q pass %d: match %d = %d, want %d", q, pass, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRoundTripTweetsAndStats checks every decoded tweet field the
// ranking path consumes, plus the three in-place stat tables over the
// whole user universe.
func TestRoundTripTweetsAndStats(t *testing.T) {
	c, s := writeCorpus(t, diskseg.Options{BlockCache: 3})
	for i := 0; i < c.NumTweets(); i++ {
		id := microblog.TweetID(i)
		want, got := c.Tweet(id), s.Tweet(id)
		if got.ID != want.ID || got.Author != want.Author || got.Text != want.Text ||
			got.RetweetCount != want.RetweetCount || got.Topic != want.Topic {
			t.Fatalf("tweet %d: got %+v want %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.Terms, want.Terms) {
			t.Fatalf("tweet %d terms: got %v want %v", i, got.Terms, want.Terms)
		}
		if len(got.Mentions) != len(want.Mentions) || (len(want.Mentions) > 0 && !reflect.DeepEqual(got.Mentions, want.Mentions)) {
			t.Fatalf("tweet %d mentions: got %v want %v", i, got.Mentions, want.Mentions)
		}
	}
	for u := 0; u < c.NumUsers(); u++ {
		uid := world.UserID(u)
		if s.NumTweetsBy(uid) != c.NumTweetsBy(uid) ||
			s.NumMentionsOf(uid) != c.NumMentionsOf(uid) ||
			s.NumRetweetsOf(uid) != c.NumRetweetsOf(uid) {
			t.Fatalf("user %d stats: disk %d/%d/%d heap %d/%d/%d", u,
				s.NumTweetsBy(uid), s.NumMentionsOf(uid), s.NumRetweetsOf(uid),
				c.NumTweetsBy(uid), c.NumMentionsOf(uid), c.NumRetweetsOf(uid))
		}
	}
	// Tweets() materializes the same sequence (the compaction path).
	all := s.Tweets()
	if len(all) != c.NumTweets() {
		t.Fatalf("Tweets() returned %d, want %d", len(all), c.NumTweets())
	}
	for i := range all {
		if all[i].Text != c.Tweet(microblog.TweetID(i)).Text || all[i].ID != microblog.TweetID(i) {
			t.Fatalf("Tweets()[%d] mismatch", i)
		}
	}
}

// TestFeaturesEquivalence pins the in-place feature column against the
// corpus it was written from: for every local id, with and without the
// hashtag bit asked for, author, retweets, hashtag and mentions read
// off the map equal the ones derived from the heap tweet — over posts
// with no, one and several mentions, with and without a "#" term, and
// a short last block — through one reused scratch, with no block
// decode (the cache stays untouched) and no allocation.
func TestFeaturesEquivalence(t *testing.T) {
	w := world.Build(world.TinyConfig())
	last := world.UserID(len(w.Users) - 1)
	c := microblog.Generate(w, microblog.TinyGenConfig()).ExtendedWith([]microblog.Post{
		{Author: 3, Text: "two fans #niners", Mentions: []world.UserID{1, 2}, RetweetCount: 7, Topic: -1},
		{Author: last, Text: "three fans, no tag", Mentions: []world.UserID{5, 0, last}, RetweetCount: 1 << 20, Topic: -1},
		{Author: 0, Text: "a lone # is no hashtag", Topic: -1},
	})
	if c.NumTweets()%diskseg.TweetBlockLen == 0 {
		c = c.ExtendedWith([]microblog.Post{{Author: 1, Text: "pads the last block short", Topic: -1}})
	}
	path := filepath.Join(t.TempDir(), "seg.esg")
	if err := diskseg.Write(path, c); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := diskseg.Open(path, diskseg.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	var scratch []world.UserID
	var none, one, several, tagged, untagged int
	for i := 0; i < c.NumTweets(); i++ {
		tw := c.Tweet(microblog.TweetID(i))
		wantTag := false
		for _, tok := range tw.Terms {
			wantTag = wantTag || (len(tok) > 1 && tok[0] == '#')
		}
		for _, ask := range []bool{false, true} {
			author, retweets, tag, mentions := s.Features(tw.ID, ask, &scratch)
			if author != tw.Author || retweets != tw.RetweetCount || tag != (ask && wantTag) {
				t.Fatalf("tweet %d (hashtag asked: %v): got author %d retweets %d hashtagged %v, want %d %d %v",
					i, ask, author, retweets, tag, tw.Author, tw.RetweetCount, ask && wantTag)
			}
			if len(mentions) != len(tw.Mentions) {
				t.Fatalf("tweet %d: mentions %v, want %v", i, mentions, tw.Mentions)
			}
			for j := range mentions {
				if mentions[j] != tw.Mentions[j] {
					t.Fatalf("tweet %d: mentions %v, want %v", i, mentions, tw.Mentions)
				}
			}
		}
		switch len(tw.Mentions) {
		case 0:
			none++
		case 1:
			one++
		default:
			several++
		}
		if wantTag {
			tagged++
		} else {
			untagged++
		}
	}
	if none == 0 || one == 0 || several == 0 || tagged == 0 || untagged == 0 {
		t.Fatalf("corpus misses a case: mentions 0/1/>1 = %d/%d/%d, hashtag yes/no = %d/%d",
			none, one, several, tagged, untagged)
	}
	for _, m := range reg.Snapshot() {
		if (m.Name == "disk_block_cache_hits" || m.Name == "disk_block_cache_misses") && m.Value != 0 {
			t.Fatalf("%s = %d after a feature sweep: Features went through the block cache", m.Name, m.Value)
		}
	}
	if reg.Histogram("disk_read_ns").Count() != 0 {
		t.Fatal("a feature sweep decoded a block")
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < c.NumTweets(); i++ {
			s.Features(microblog.TweetID(i), true, &scratch)
		}
	})
	if allocs != 0 {
		t.Fatalf("a sweep over %d posts allocated %v times, want 0", c.NumTweets(), allocs)
	}
}

// metric reads one counter off a registry snapshot (0 when absent).
func metric(reg *obs.Registry, name string) int64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestBlockCacheCountsAndObs pins the hot-path story: repeating one
// query hits the block cache instead of re-decoding, and the obs
// counters see exactly that. A thrashing cache recycles a slot on every
// miss, and each of those misses still counts and still observes one
// disk_read_ns.
func TestBlockCacheCountsAndObs(t *testing.T) {
	reg := obs.NewRegistry()
	c, s := writeCorpus(t, diskseg.Options{Obs: reg})
	tok := vocabulary(c)[0]
	var buf []microblog.TweetID
	buf = s.Postings(tok, buf)
	missesAfterCold := metric(reg, "disk_block_cache_misses")
	if missesAfterCold == 0 {
		t.Fatal("cold read recorded no cache misses")
	}
	if reg.Histogram("disk_read_ns").Count() == 0 {
		t.Fatal("cold read recorded no disk_read_ns observations")
	}
	hitsBefore := metric(reg, "disk_block_cache_hits")
	for k := 0; k < 5; k++ {
		buf = s.Postings(tok, buf)
	}
	if metric(reg, "disk_block_cache_misses") != missesAfterCold {
		t.Fatalf("hot reads decoded again: misses %d -> %d",
			missesAfterCold, metric(reg, "disk_block_cache_misses"))
	}
	if metric(reg, "disk_block_cache_hits") <= hitsBefore {
		t.Fatal("hot reads recorded no cache hits")
	}

	thrashReg := obs.NewRegistry()
	_, thrash := writeCorpus(t, diskseg.Options{BlockCache: 2, Obs: thrashReg})
	vocab := vocabulary(c)
	var blocks int64
	for _, tok := range vocab {
		blocks += int64((len(c.Postings(tok)) + microblog.PostingsBlockLen - 1) / microblog.PostingsBlockLen)
	}
	for pass := 1; pass <= 2; pass++ {
		for _, tok := range vocab {
			buf = thrash.Postings(tok, buf)
		}
		hits, misses := metric(thrashReg, "disk_block_cache_hits"), metric(thrashReg, "disk_block_cache_misses")
		if hits+misses != int64(pass)*blocks {
			t.Fatalf("pass %d: %d hits + %d misses, want %d block reads", pass, hits, misses, int64(pass)*blocks)
		}
		if misses <= int64(pass-1)*blocks {
			t.Fatalf("pass %d: %d misses over %d block reads: the 2-block cache did not thrash", pass, misses, int64(pass)*blocks)
		}
		if got := thrashReg.Histogram("disk_read_ns").Count(); got != misses {
			t.Fatalf("pass %d: %d disk_read_ns observations for %d misses", pass, got, misses)
		}
	}
}

// TestBlockCacheRecycleUnderReaders runs four readers over a two-block
// cache, so nearly every block read evicts and recycles the slot
// another reader may be copying from: every posting list and every
// multi-token match must still equal the corpus's. Run it under -race.
func TestBlockCacheRecycleUnderReaders(t *testing.T) {
	c, s := writeCorpus(t, diskseg.Options{BlockCache: 2})
	vocab := vocabulary(c)
	var queries []string
	for i := 0; i+1 < len(vocab); i += 5 {
		queries = append(queries, vocab[i]+" "+vocab[i+1])
	}
	for i := 0; i < c.NumTweets(); i += 97 {
		queries = append(queries, c.Tweet(microblog.TweetID(i)).Text)
	}
	wantMatch := make([][]microblog.TweetID, len(queries))
	for i, q := range queries {
		wantMatch[i] = c.MatchAppend(q, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []microblog.TweetID
			for k := range vocab {
				tok := vocab[(k+g*len(vocab)/4)%len(vocab)]
				if buf = s.Postings(tok, buf); !slices.Equal(buf, c.Postings(tok)) {
					t.Errorf("reader %d: Postings(%q) = %v, want %v", g, tok, buf, c.Postings(tok))
					return
				}
			}
			for k := range queries {
				i := (k + g*len(queries)/4) % len(queries)
				if buf = s.MatchAppend(queries[i], buf); !slices.Equal(buf, wantMatch[i]) {
					t.Errorf("reader %d: MatchAppend(%q) = %v, want %v", g, queries[i], buf, wantMatch[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestThrashingMatchAllocatesNothing pins the miss path: with a
// two-block cache nearly every block read misses, decodes into the
// caller's buffer and recycles the coldest slot, so once the buffers
// and slots are warm a sweep of single- and multi-token matches over
// the whole vocabulary allocates nothing.
func TestThrashingMatchAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; the matcher's pooled scratch is rebuilt")
	}
	reg := obs.NewRegistry()
	c, s := writeCorpus(t, diskseg.Options{BlockCache: 2, Obs: reg})
	vocab := vocabulary(c)
	var buf []microblog.TweetID
	sweep := func() {
		for i, tok := range vocab {
			buf = s.Postings(tok, buf)
			if i > 0 {
				buf = s.MatchTokensAppend(vocab[i-1:i+1], buf)
			}
		}
	}
	sweep()
	before := metric(reg, "disk_block_cache_misses")
	if allocs := testing.AllocsPerRun(3, sweep); allocs != 0 {
		t.Fatalf("a thrashing sweep over %d terms allocated %v times, want 0", len(vocab), allocs)
	}
	if metric(reg, "disk_block_cache_misses") == before {
		t.Fatal("the sweep never missed the cache")
	}
}

// TestRefcountLifecycle pins the pin-against-unmap rule: Retain keeps
// the segment readable after the opener releases it, and the armed
// file removal happens only at the last Release.
func TestRefcountLifecycle(t *testing.T) {
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	path := filepath.Join(t.TempDir(), "seg.esg")
	if err := diskseg.Write(path, c); err != nil {
		t.Fatal(err)
	}
	s, err := diskseg.Open(path, diskseg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.RemoveOnRelease()
	s.Retain() // the "snapshot" reference
	if got := s.Refs(); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}

	s.Release() // the layout drops the segment (a compaction rewrote it)
	if got := s.Refs(); got != 1 {
		t.Fatalf("refs after layout release = %d, want 1", got)
	}
	// Still fully readable through the reader's pin.
	tok := vocabulary(c)[0]
	if got := s.Postings(tok, nil); len(got) != len(c.Postings(tok)) {
		t.Fatalf("pinned segment misread: %d postings, want %d", len(got), len(c.Postings(tok)))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("file removed while pinned: %v", err)
	}

	s.Release() // the reader retires
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file not removed at last release: %v", err)
	}
}
