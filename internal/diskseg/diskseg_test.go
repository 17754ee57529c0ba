package diskseg_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/diskseg"
	"repro/internal/microblog"
	"repro/internal/race"
	"repro/internal/textutil"
	"repro/internal/world"
)

// writeCorpus spills a generated tiny corpus and opens it back.
func writeCorpus(t testing.TB) (*microblog.Corpus, *diskseg.Segment) {
	t.Helper()
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	path := filepath.Join(t.TempDir(), "seg.esg")
	if err := writeImage(path, c); err != nil {
		t.Fatal(err)
	}
	s, err := diskseg.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Release)
	return c, s
}

// writeImage encodes c and writes the image to path.
func writeImage(path string, c *microblog.Corpus) error {
	img, err := diskseg.Encode(c)
	if err != nil {
		return err
	}
	return diskseg.WriteFile(path, img)
}

// scanAll returns every post of the segment, in id order.
func scanAll(s *diskseg.Segment) []microblog.Tweet {
	all := make([]microblog.Tweet, 0, s.NumTweets())
	s.Scan(0, s.NumTweets(), func(tw *microblog.Tweet) { all = append(all, *tw) })
	return all
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
// written from, for the whole vocabulary, twice — a repeat decodes off
// the map again and must not differ. The cases vary the caller's
// scratch: one warm buffer reused across the vocabulary ("cached"), a
// nil one per call ("uncached"), and a fresh two-slot one holding stale
// ids that every list outgrows ("tiny-cache") — Postings must overwrite
// the scratch from index 0 and grow it, whatever it held.
func TestRoundTripPostings(t *testing.T) {
	c, s := writeCorpus(t)
	if s.NumTweets() != c.NumTweets() || s.NumUsers() != c.NumUsers() {
		t.Fatalf("counts: disk %d/%d, heap %d/%d",
			s.NumTweets(), s.NumUsers(), c.NumTweets(), c.NumUsers())
	}
	vocab := vocabulary(c)
	var warm []microblog.TweetID
	for _, tc := range []struct {
		name    string
		scratch func() []microblog.TweetID
	}{
		{"cached", func() []microblog.TweetID { return warm }},
		{"uncached", func() []microblog.TweetID { return nil }},
		{"tiny-cache", func() []microblog.TweetID { return []microblog.TweetID{1<<31 - 1, 1<<31 - 1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tok := range vocab {
				want := c.Index().Postings(tok)
				for pass := 0; pass < 2; pass++ {
					got := s.Postings(tok, tc.scratch())
					if !slices.Equal(got, want) {
						t.Fatalf("%q pass %d: %v, want %v", tok, pass, got, want)
					}
					warm = got
				}
			}
		})
	}
}

// TestMatchAppendEquivalence checks MatchTokensAppend against the
// corpus's TermIndex.MatchAppend for single- and multi-token queries,
// including misses, and for rare terms against a many-block one, on and
// next to its blocks' edges: a match decodes only the blocks that can
// hold a rarer term's ids, and must skip no other.
func TestMatchAppendEquivalence(t *testing.T) {
	c, s := writeCorpus(t)
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
	// The most common term (many blocks) against rarer ones: the match
	// decodes only the blocks that can hold a rarer term's ids.
	common := vocab[0]
	for _, tok := range vocab {
		if len(c.Index().Postings(tok)) > len(c.Index().Postings(common)) {
			common = tok
		}
	}
	if len(c.Index().Postings(common)) < 3*diskseg.PostingsBlockLen {
		t.Fatalf("the most common term %q spans fewer than 3 blocks", common)
	}
	for i := 0; i < len(vocab); i += 37 {
		queries = append(queries, common+" "+vocab[i], vocab[i]+" "+common+" "+vocab[(i+1)%len(vocab)])
	}
	checkMatches(t, c, s, queries)

	// Block edges: "all" is in every post, so its blocks hold runs of
	// consecutive ids; each rarer term sits on a block's last or first
	// id, or one past the end.
	w := world.Build(world.TinyConfig())
	posts := make([]microblog.Post, 3*diskseg.PostingsBlockLen+5)
	edges := map[int]string{0: "a", 127: "b", 128: "c", 255: "d", 256: "b", 383: "e", 386: "f"}
	for i := range posts {
		posts[i] = microblog.Post{Author: world.UserID(i % len(w.Users)), Text: "all " + edges[i], Topic: -1}
	}
	ec := microblog.BuildCorpus(w, posts)
	img, err := diskseg.Encode(ec)
	if err != nil {
		t.Fatal(err)
	}
	es, err := diskseg.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Release()
	checkMatches(t, ec, es, []string{"all a", "b all", "all c", "d all", "all e", "all f", "all b c", "all d e f"})
}

// checkMatches holds the segment's matches to the corpus's, twice per query
// (the second pass reuses the matcher's pooled scratch).
func checkMatches(t *testing.T, c *microblog.Corpus, s *diskseg.Segment, queries []string) {
	t.Helper()
	var got, want []microblog.TweetID
	for _, q := range queries {
		tokens := textutil.Tokenize(q)
		want = c.Index().MatchAppend(want, tokens)
		for pass := 0; pass < 2; pass++ {
			got = s.MatchTokensAppend(tokens, got)
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

// unnormalPosts are posts whose text is not its terms joined by single
// spaces, so a segment keeps them as raw records, next to a non-ASCII
// post and a 140-rune cut that are in normal form and term-coded.
func unnormalPosts() []microblog.Post {
	texts := []string{
		"Coffee with the 49ers", "coffee\twith the 49ers", "coffee  with the 49ers",
		" coffee with the 49ers ", "", "Ünïcode café", "café crème",
		strings.Repeat("abc ", 40),   // cut at 140 runes, ending in a space
		strings.Repeat("éa bc ", 30), // cut at 140 runes, mid-token
	}
	posts := make([]microblog.Post, len(texts))
	for i, text := range texts {
		posts[i] = microblog.Post{Author: world.UserID(i), Text: text, RetweetCount: i, Topic: -1}
	}
	return posts
}

// writerIndex builds the term index of tweets as a writer's tail does:
// Add post by post, keeping TermOf.
func writerIndex(tweets []microblog.Tweet) *microblog.TermIndex {
	var x microblog.TermIndex
	x.Record(0, 0)
	for i := range tweets {
		x.Add(microblog.TweetID(i), tweets[i].Terms)
	}
	return &x
}

// renumbered returns x with its terms numbered in reverse and TermOf
// remapped to match: the same index, numbered another way.
func renumbered(x *microblog.TermIndex) *microblog.TermIndex {
	last := uint32(len(x.Terms) - 1)
	r := &microblog.TermIndex{Terms: slices.Clone(x.Terms), TermOf: make([]uint32, len(x.TermOf))}
	slices.Reverse(r.Terms)
	for k, n := range x.TermOf {
		r.TermOf[k] = last - n
	}
	return r
}

// TestRoundTripTweetsAndStats checks every decoded tweet field the
// ranking path consumes, plus the three in-place stat tables over the
// whole user universe — over a segment holding both record kinds: the
// generated corpus, term-coded, and unnormalPosts, raw but for two.
// The image must not depend on how the index numbers its terms, nor on
// whether TermOf was kept or read back: a writer's index of the posts,
// renumbered, encodes Encode's bytes.
func TestRoundTripTweetsAndStats(t *testing.T) {
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig()).ExtendedWith(unnormalPosts())
	path := filepath.Join(t.TempDir(), "seg.esg")
	if err := writeImage(path, c); err != nil {
		t.Fatal(err)
	}
	indexed, err := diskseg.EncodeIndexed(c.Tweets(), c.NumUsers(), renumbered(writerIndex(c.Tweets())))
	if err != nil {
		t.Fatal(err)
	}
	if img, err := os.ReadFile(path); err != nil || !bytes.Equal(indexed, img) {
		t.Fatalf("a renumbered index encodes differently from Encode (%d vs %d bytes, %v)", len(indexed), len(img), err)
	}
	s, err := diskseg.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if coded, raw := s.RecordKinds(); coded != c.NumTweets()-7 || raw != 7 {
		t.Fatalf("%d term-coded and %d raw records, want %d and 7", coded, raw, c.NumTweets()-7)
	}
	all := scanAll(s)
	if len(all) != c.NumTweets() {
		t.Fatalf("Scan yielded %d posts, want %d", len(all), c.NumTweets())
	}
	for i := range all {
		want, got := c.Tweet(microblog.TweetID(i)), &all[i]
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
}

// TestFeaturesEquivalence pins the in-place feature column against the
// corpus it was written from: for every local id, with and without the
// hashtag bit asked for, author, retweets, hashtag and mentions read
// off the map equal the ones derived from the heap tweet — over posts
// with no, one and several mentions, with and without a "#" term, and
// a short last block — through one reused scratch, with no
// allocation.
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
	if err := writeImage(path, c); err != nil {
		t.Fatal(err)
	}
	s, err := diskseg.Open(path, nil)
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
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < c.NumTweets(); i++ {
			s.Features(microblog.TweetID(i), true, &scratch)
		}
	})
	if allocs != 0 {
		t.Fatalf("a sweep over %d posts allocated %v times, want 0", c.NumTweets(), allocs)
	}
}

// TestConcurrentReadersMatchCorpus runs four readers over one mapped
// segment, each starting at a different place in the vocabulary and
// the query list: every posting list and every multi-token match must
// still equal the corpus's. Run it under -race.
func TestConcurrentReadersMatchCorpus(t *testing.T) {
	c, s := writeCorpus(t)
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
		wantMatch[i] = c.Index().MatchAppend(nil, textutil.Tokenize(q))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []microblog.TweetID
			for k := range vocab {
				tok := vocab[(k+g*len(vocab)/4)%len(vocab)]
				if buf = s.Postings(tok, buf); !slices.Equal(buf, c.Index().Postings(tok)) {
					t.Errorf("reader %d: Postings(%q) = %v, want %v", g, tok, buf, c.Index().Postings(tok))
					return
				}
			}
			for k := range queries {
				i := (k + g*len(queries)/4) % len(queries)
				if buf = s.MatchTokensAppend(textutil.Tokenize(queries[i]), buf); !slices.Equal(buf, wantMatch[i]) {
					t.Errorf("reader %d: MatchTokensAppend(%q) = %v, want %v", g, queries[i], buf, wantMatch[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestThrashingMatchAllocatesNothing pins the read path's scratch
// discipline under the access pattern a cache would thrash on: a sweep
// of single- and multi-token matches over the whole vocabulary touches
// every posting block, each decoded straight into the caller's buffer,
// so once the buffers are warm the sweep allocates nothing — on a
// loaded (in-memory) segment and on an opened (mapped) one alike.
func TestThrashingMatchAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; the matcher's pooled scratch is rebuilt")
	}
	c, opened := writeCorpus(t)
	img, err := diskseg.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := diskseg.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Release()
	vocab := vocabulary(c)
	for _, tc := range []struct {
		name string
		s    *diskseg.Segment
	}{{"load", loaded}, {"open", opened}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf []microblog.TweetID
			sweep := func() {
				for i, tok := range vocab {
					buf = tc.s.Postings(tok, buf)
					if i > 0 {
						buf = tc.s.MatchTokensAppend(vocab[i-1:i+1], buf)
					}
				}
			}
			sweep()
			if allocs := testing.AllocsPerRun(3, sweep); allocs != 0 {
				t.Fatalf("a sweep over %d terms allocated %v times, want 0", len(vocab), allocs)
			}
		})
	}
}

// TestRefcountLifecycle pins the pin-against-unmap rule: Retain keeps
// the segment readable after the opener releases it, and the armed
// file removal happens only at the last Release.
func TestRefcountLifecycle(t *testing.T) {
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	path := filepath.Join(t.TempDir(), "seg.esg")
	if err := writeImage(path, c); err != nil {
		t.Fatal(err)
	}
	s, err := diskseg.Open(path, nil)
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
	if got := s.Postings(tok, nil); len(got) != len(c.Index().Postings(tok)) {
		t.Fatalf("pinned segment misread: %d postings, want %d", len(got), len(c.Index().Postings(tok)))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("file removed while pinned: %v", err)
	}

	s.Release() // the reader retires
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file not removed at last release: %v", err)
	}
}

// TestOpenAllocsFlat pins that opening a segment allocates O(1) times,
// not per dictionary term: the dictionary is one string, the entries,
// the block directory and the term index one array each. A 2048-post
// segment, with several times the terms of a 128-post one, opens with
// exactly as many allocations (it took four per term before).
func TestOpenAllocsFlat(t *testing.T) {
	w := world.Build(world.TinyConfig())
	stream := microblog.NewPostStream(w, microblog.DefaultStreamConfig(31))
	var counts []float64
	for _, n := range []int{128, 2048} {
		posts := make([]microblog.Post, n)
		for i := range posts {
			posts[i] = stream.Next()
		}
		img, err := diskseg.Encode(microblog.BuildCorpus(w, posts))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			s, err := diskseg.Open("seg.esg", memIO(img))
			if err != nil {
				t.Fatal(err)
			}
			s.Release()
		})
		t.Logf("open of a %d-post segment: %v allocs", n, allocs)
		counts = append(counts, allocs)
	}
	if counts[1] != counts[0] {
		t.Fatalf("opening 128- and 2048-post segments allocated %v times, want equal counts", counts)
	}
}
