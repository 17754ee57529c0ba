package diskseg_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/diskseg"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/world"
	"repro/internal/xrand"
)

// corpusEqualsRebuild fails the test unless got equals want — a
// from-scratch FromTweets corpus — in every observable: tweets and ids,
// the term set, every posting list, the per-user counters, and (Encode
// sorts its dictionary, so it is deterministic) the on-disk image byte
// for byte.
func corpusEqualsRebuild(t *testing.T, label string, got, want *microblog.Corpus) {
	t.Helper()
	if got.NumTweets() != want.NumTweets() || got.NumTerms() != want.NumTerms() {
		t.Fatalf("%s: %d tweets / %d terms, rebuild has %d / %d", label,
			got.NumTweets(), got.NumTerms(), want.NumTweets(), want.NumTerms())
	}
	for i := 0; i < want.NumTweets(); i++ {
		g, w := got.Tweet(microblog.TweetID(i)), want.Tweet(microblog.TweetID(i))
		if g.ID != w.ID || g.Author != w.Author || g.Text != w.Text || g.Topic != w.Topic ||
			g.RetweetCount != w.RetweetCount || !slices.Equal(g.Terms, w.Terms) || !slices.Equal(g.Mentions, w.Mentions) {
			t.Fatalf("%s: tweet %d differs:\n  got  %+v\n  want %+v", label, i, g, w)
		}
	}
	want.Terms(func(term string, postings int) {
		if g, w := got.Postings(term), want.Postings(term); !slices.Equal(g, w) {
			t.Fatalf("%s: postings of %q: %v, rebuild has %v", label, term, g, w)
		}
	})
	for u := 0; u < want.NumUsers(); u++ {
		id := world.UserID(u)
		if got.NumTweetsBy(id) != want.NumTweetsBy(id) || got.NumMentionsOf(id) != want.NumMentionsOf(id) ||
			got.NumRetweetsOf(id) != want.NumRetweetsOf(id) {
			t.Fatalf("%s: user %d counters differ", label, u)
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
		t.Fatalf("%s: encoded images differ (%d vs %d bytes)", label, len(gotImg), len(wantImg))
	}
}

// TestMergeEqualsRebuild is the property compaction rests on: for a
// tweet sequence cut into 1–6 parts at random points, each part a heap
// corpus or a written-and-opened disk segment, microblog.Merge — which
// concatenates the parts' posting lists and re-indexes nothing — equals
// FromTweets over the concatenation in every observable. The sequence
// carries the cases a list concatenation can get wrong: a token repeated
// inside one post, a post with no terms, a term present in one part
// only. The merge reads disk parts past their block LRU: the cache
// counters must not move.
func TestMergeEqualsRebuild(t *testing.T) {
	w := world.Build(world.TinyConfig())
	stream := microblog.NewPostStream(w, microblog.DefaultStreamConfig(505))
	var tweets []microblog.Tweet
	for i := 0; i < 700; i++ {
		p := stream.Next()
		switch i % 97 {
		case 13:
			p.Text = "lol " + p.Text + " lol omg lol"
		case 41:
			p.Text = ""
		}
		if i == 333 {
			p.Text += " onlyhere"
		}
		tweets = append(tweets, microblog.MakeTweet(p))
	}
	want := microblog.FromTweets(w, tweets)
	if len(want.Postings("onlyhere")) != 1 || len(want.Tweet(41).Terms) != 0 {
		t.Fatal("the special posts are not in the sequence")
	}

	dir := t.TempDir()
	reg := obs.NewRegistry()
	hits, misses := reg.Counter("disk_block_cache_hits"), reg.Counter("disk_block_cache_misses")
	rng := xrand.New(606)
	sawDisk, sawHeap := false, false
	for round := 0; round < 24; round++ {
		nparts := 1 + rng.Intn(6)
		cuts := map[int]bool{}
		for len(cuts) < nparts-1 {
			cuts[1+rng.Intn(len(tweets)-1)] = true
		}
		bounds := []int{0, len(tweets)}
		for c := range cuts {
			bounds = append(bounds, c)
		}
		slices.Sort(bounds)

		var parts []microblog.Part
		label := fmt.Sprintf("round %d:", round)
		for j := 0; j+1 < len(bounds); j++ {
			c := microblog.FromTweets(w, tweets[bounds[j]:bounds[j+1]])
			if rng.Bool(0.5) {
				sawHeap = true
				parts = append(parts, c)
				label += fmt.Sprintf(" heap[%d:%d]", bounds[j], bounds[j+1])
				continue
			}
			sawDisk = true
			path := filepath.Join(dir, fmt.Sprintf("r%d-p%d.esg", round, j))
			if err := diskseg.Write(path, c); err != nil {
				t.Fatal(err)
			}
			s, err := diskseg.Open(path, diskseg.Options{Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			parts = append(parts, s)
			label += fmt.Sprintf(" disk[%d:%d]", bounds[j], bounds[j+1])
		}
		h, m := hits.Load(), misses.Load()
		got := microblog.Merge(w, parts)
		if hits.Load() != h || misses.Load() != m {
			t.Fatalf("%s the merge went through the block cache (hits %d → %d, misses %d → %d)",
				label, h, hits.Load(), m, misses.Load())
		}
		corpusEqualsRebuild(t, label, got, want)
	}
	if !sawDisk || !sawHeap {
		t.Fatalf("parts drawn: disk %v, heap %v — want both tiers", sawDisk, sawHeap)
	}
}
