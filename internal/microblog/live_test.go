package microblog

import (
	"testing"

	"repro/internal/world"
)

// streamPosts draws n posts from a fresh deterministic stream.
func streamPosts(w *world.World, seed uint64, n int) []Post {
	s := NewPostStream(w, DefaultStreamConfig(seed))
	posts := make([]Post, n)
	for i := range posts {
		posts[i] = s.Next()
	}
	return posts
}

// corporaIdentical fails the test unless the two corpora hold the same
// tweets, postings and per-user counters.
func corporaIdentical(t *testing.T, got, want *Corpus) {
	t.Helper()
	if got.NumTweets() != want.NumTweets() {
		t.Fatalf("tweet counts differ: %d vs %d", got.NumTweets(), want.NumTweets())
	}
	tokens := map[string]bool{}
	for i := 0; i < want.NumTweets(); i++ {
		g, w := got.Tweet(TweetID(i)), want.Tweet(TweetID(i))
		if g.ID != w.ID || g.Author != w.Author || g.Text != w.Text ||
			g.RetweetCount != w.RetweetCount || g.Topic != w.Topic ||
			len(g.Mentions) != len(w.Mentions) || len(g.Terms) != len(w.Terms) {
			t.Fatalf("tweet %d differs:\n  got  %+v\n  want %+v", i, g, w)
		}
		for _, tok := range w.Terms {
			tokens[tok] = true
		}
	}
	for tok := range tokens {
		g, w := got.Postings(tok), want.Postings(tok)
		if len(g) != len(w) {
			t.Fatalf("postings %q: %d ids vs %d", tok, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("postings %q[%d]: %d vs %d", tok, i, g[i], w[i])
			}
		}
	}
	for u := 0; u < want.NumUsers(); u++ {
		id := world.UserID(u)
		if got.NumTweetsBy(id) != want.NumTweetsBy(id) ||
			got.NumMentionsOf(id) != want.NumMentionsOf(id) ||
			got.NumRetweetsOf(id) != want.NumRetweetsOf(id) {
			t.Fatalf("user %d counters differ", u)
		}
	}
}

// TestIncrementalBatchesMatchConcatenated is the property underpinning
// sealing and compaction: a corpus grown from K incremental batches
// must be indistinguishable — postings, counters, tweets — from one
// built over the concatenated batch.
func TestIncrementalBatchesMatchConcatenated(t *testing.T) {
	w := world.Build(world.TinyConfig())
	for _, k := range []int{1, 2, 5, 9} {
		posts := streamPosts(w, 101, 240)
		want := BuildCorpus(w, posts)

		per := (len(posts) + k - 1) / k
		var got *Corpus
		for off := 0; off < len(posts); off += per {
			end := min(off+per, len(posts))
			if got == nil {
				got = BuildCorpus(w, posts[:end])
			} else {
				got = got.ExtendedWith(posts[off:end])
			}
		}
		corporaIdentical(t, got, want)
	}
}

// TestFromTweetsReindexesConcatenation checks the compaction primitive:
// re-indexing the concatenation of two corpora's tweets equals building
// over the concatenated posts directly.
func TestFromTweetsReindexesConcatenation(t *testing.T) {
	w := world.Build(world.TinyConfig())
	posts := streamPosts(w, 202, 180)
	a := BuildCorpus(w, posts[:70])
	b := BuildCorpus(w, posts[70:])
	all := append(append([]Tweet(nil), a.Tweets()...), b.Tweets()...)
	corporaIdentical(t, FromTweets(w, all), BuildCorpus(w, posts))
}

// TestFromTweetsAdoptsSlice pins FromTweets's ownership contract: the
// corpus holds the caller's array, not a copy, each tweet's ID is
// overwritten in place with its position, and the per-user counters
// are a hand count of the slice.
func TestFromTweetsAdoptsSlice(t *testing.T) {
	w := world.Build(world.TinyConfig())
	posts := streamPosts(w, 404, 150)
	in := make([]Tweet, len(posts))
	for i, p := range posts {
		in[i] = MakeTweet(p)
		in[i].ID = TweetID(len(posts) - i) // stale: FromTweets must overwrite it
	}
	c := FromTweets(w, in)
	if &c.Tweets()[0] != &in[0] {
		t.Fatal("FromTweets copied its input instead of adopting it")
	}
	tweetsBy := make([]int, len(w.Users))
	mentionsOf := make([]int, len(w.Users))
	retweetsOf := make([]int, len(w.Users))
	mentions := 0
	for i, tw := range in {
		if tw.ID != TweetID(i) {
			t.Fatalf("tweet %d has ID %d, want its position", i, tw.ID)
		}
		tweetsBy[tw.Author]++
		retweetsOf[tw.Author] += tw.RetweetCount
		for _, m := range tw.Mentions {
			mentionsOf[m]++
			mentions++
		}
	}
	if mentions == 0 {
		t.Fatal("the stream drew no mention: the mention counter goes unchecked")
	}
	for u := range w.Users {
		id := world.UserID(u)
		if c.NumTweetsBy(id) != tweetsBy[u] || c.NumMentionsOf(id) != mentionsOf[u] || c.NumRetweetsOf(id) != retweetsOf[u] {
			t.Fatalf("user %d counters (%d, %d, %d), hand count (%d, %d, %d)", u,
				c.NumTweetsBy(id), c.NumMentionsOf(id), c.NumRetweetsOf(id), tweetsBy[u], mentionsOf[u], retweetsOf[u])
		}
	}
}

// TestExtendedWithLeavesOriginalUntouched guards the immutability the
// snapshot machinery relies on.
func TestExtendedWithLeavesOriginalUntouched(t *testing.T) {
	w := world.Build(world.TinyConfig())
	posts := streamPosts(w, 303, 120)
	base := BuildCorpus(w, posts[:60])
	n, by := base.NumTweets(), base.NumTweetsBy(posts[0].Author)
	ext := base.ExtendedWith(posts[60:])
	if base.NumTweets() != n || base.NumTweetsBy(posts[0].Author) != by {
		t.Fatal("ExtendedWith mutated the receiver")
	}
	if ext.NumTweets() != len(posts) {
		t.Fatalf("extended corpus has %d tweets, want %d", ext.NumTweets(), len(posts))
	}
}

// TestPostStreamDeterministic pins the stream's determinism in its seed.
func TestPostStreamDeterministic(t *testing.T) {
	w := world.Build(world.TinyConfig())
	a := streamPosts(w, 7, 80)
	b := streamPosts(w, 7, 80)
	for i := range a {
		if a[i].Author != b[i].Author || a[i].Text != b[i].Text {
			t.Fatalf("post %d diverged between identical seeds", i)
		}
	}
	// MakeTweet enforces the 140-rune cap Generate applies.
	long := MakeTweet(Post{Author: 0, Text: longText(200)})
	if got := len([]rune(long.Text)); got > 140 {
		t.Fatalf("MakeTweet left %d runes, cap is 140", got)
	}
}

func longText(n int) string {
	b := make([]rune, n)
	for i := range b {
		b[i] = 'x'
	}
	return string(b)
}
