package ingest

// White-box tests of the seal: they look at the sealed corpus itself,
// which no exported surface hands out.

import (
	"bytes"
	"testing"

	"repro/internal/diskseg"
	"repro/internal/microblog"
	"repro/internal/world"
)

// sealPosts draws n stream posts and plants the cases incremental
// indexing can get wrong: a token repeated inside one post (must be
// posted once) and a post with no terms.
func sealPosts(w *world.World, seed uint64, n int) []microblog.Post {
	s := microblog.NewPostStream(w, microblog.DefaultStreamConfig(seed))
	posts := make([]microblog.Post, n)
	for i := range posts {
		posts[i] = s.Next()
	}
	posts[n/3].Text = "lol " + posts[n/3].Text + " lol omg lol"
	posts[n/2].Text = ""
	return posts
}

// TestSealAdoptsIndex pins both halves of the seal: the sealed segment
// — the writer's incrementally kept index adopted as it is — equals a
// from-scratch FromTweets over the same posts (ids, term count, and
// the encoded image byte for byte, which covers every tweet field,
// every posting list and the counters), and it shares the active array
// with the tail views published before the seal: no tweet was copied.
func TestSealAdoptsIndex(t *testing.T) {
	w := world.Build(world.TinyConfig())
	idx := New(microblog.FromTweets(w, nil), Config{SealThreshold: 64, DisableCompactor: true})
	defer idx.Close()
	posts := sealPosts(w, 707, 64)
	idx.IngestBatch(posts[:63])
	before := idx.Snapshot()
	idx.Ingest(posts[63])
	if len(idx.sealed) != 1 || len(idx.active) != 0 {
		t.Fatalf("want exactly one seal, got %d segments and a %d-post tail", len(idx.sealed), len(idx.active))
	}
	got := idx.sealed[0].corpus

	tweets := make([]microblog.Tweet, len(posts))
	for i, p := range posts {
		tweets[i] = microblog.MakeTweet(p)
	}
	want := microblog.FromTweets(w, tweets)
	if got.NumTweets() != want.NumTweets() || got.NumTerms() != want.NumTerms() {
		t.Fatalf("sealed %d tweets / %d terms, rebuild has %d / %d",
			got.NumTweets(), got.NumTerms(), want.NumTweets(), want.NumTerms())
	}
	for i := range tweets {
		if id := got.Tweet(microblog.TweetID(i)).ID; id != microblog.TweetID(i) {
			t.Fatalf("sealed tweet %d carries id %d", i, id)
		}
	}
	gotImg, err := diskseg.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	wantImg, err := diskseg.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotImg, wantImg) {
		t.Fatalf("sealed segment and rebuild encode differently (%d vs %d bytes)", len(gotImg), len(wantImg))
	}

	if got.Tweet(0) != &before.tail[0] || got.Tweet(62) != &before.tail[62] {
		t.Fatal("the sealed corpus holds a copy of the active array, not the array itself")
	}
}

// TestSealAllocs pins the stall a seal puts under the write lock: it
// allocates the segment, the corpus and its counters, the next layout
// slice, the next active array and the next generation — a constant
// handful — and nothing per post or per term.
func TestSealAllocs(t *testing.T) {
	w := world.Build(world.TinyConfig())
	base := microblog.FromTweets(w, nil)
	posts := sealPosts(w, 808, 128)
	const runs = 10
	var idxs []*Index // AllocsPerRun calls once more to warm up
	for r := 0; r <= runs; r++ {
		idx := New(base, Config{SealThreshold: 256, DisableCompactor: true})
		defer idx.Close()
		idx.IngestBatch(posts)
		idxs = append(idxs, idx)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		idx := idxs[next]
		next++
		idx.mu.Lock()
		idx.sealLocked()
		idx.mu.Unlock()
	})
	if allocs > 8 {
		t.Fatalf("a 128-post seal allocated %v times, want ≤ 8", allocs)
	}
	t.Logf("128-post seal: %v allocs", allocs)
}
