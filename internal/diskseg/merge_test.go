package diskseg_test

import (
	"bytes"
	"fmt"
	"os"
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

// mergeStream returns the 700-post sequence the merge properties cut
// into parts. It carries the cases a list concatenation can get wrong —
// a token repeated inside one post, a post with no terms, a term present
// in one part only — and hashtagged posts, whose feature rows carry the
// hashtag bit.
func mergeStream(w *world.World) []microblog.Tweet {
	stream := microblog.NewPostStream(w, microblog.DefaultStreamConfig(505))
	var tweets []microblog.Tweet
	for i := 0; i < 700; i++ {
		p := stream.Next()
		switch i % 97 {
		case 13:
			p.Text = "lol " + p.Text + " lol omg lol"
		case 41:
			p.Text = ""
		case 60:
			p.Text += " #niners"
		}
		if i == 333 {
			p.Text += " onlyhere"
		}
		tweets = append(tweets, microblog.MakeTweet(p))
	}
	return tweets
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
	tweets := mergeStream(w)
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

// TestMergedImageEqualsEncode is the property the all-disk compaction
// rests on: WriteMerged over opened segments writes exactly the bytes
// Encode writes for microblog.Merge over them. Splits of the merge
// stream at seeded points cover fan-in 2–5, part sizes off the 64-post
// tweet-block and 128-id posting-block grids and a one-post part; a
// second set of parts shares no term at all. The merged file then opens
// and answers like the heap corpus of the same posts: every posting
// list, every post, every feature row and every per-user stat.
func TestMergedImageEqualsEncode(t *testing.T) {
	w := world.Build(world.TinyConfig())
	tweets := mergeStream(w)
	dir := t.TempDir()
	rng := xrand.New(707)
	for fanIn := 2; fanIn <= 5; fanIn++ {
		for round := 0; round < 4; round++ {
			cuts := map[int]bool{}
			if round == 0 {
				cuts[1] = true // a one-post first part
			}
			for len(cuts) < fanIn-1 {
				cuts[1+rng.Intn(len(tweets)-1)] = true
			}
			bounds := []int{0, len(tweets)}
			for c := range cuts {
				bounds = append(bounds, c)
			}
			slices.Sort(bounds)
			var chunks [][]microblog.Tweet
			for j := 0; j+1 < len(bounds); j++ {
				chunks = append(chunks, tweets[bounds[j]:bounds[j+1]])
			}
			checkMergedImage(t, fmt.Sprintf("fan-in %d round %d %v", fanIn, round, bounds), w, dir, chunks)
		}
	}

	// Disjoint vocabularies: part j's tokens all start with "v<j>", so
	// the dictionary merge takes every term from exactly one part.
	var chunks [][]microblog.Tweet
	for j := 0; j < 4; j++ {
		var chunk []microblog.Tweet
		for i := 0; i < 70+61*j; i++ {
			p := microblog.Post{
				Author: world.UserID((i * 7) % len(w.Users)), Text: fmt.Sprintf("v%dx%d v%dy #v%dz", j, i%5, j, j),
				RetweetCount: i % 3, Topic: -1,
			}
			if i%4 == 1 {
				p.Mentions = []world.UserID{world.UserID((i + j) % len(w.Users))}
			}
			chunk = append(chunk, microblog.MakeTweet(p))
		}
		chunks = append(chunks, chunk)
	}
	checkMergedImage(t, "disjoint vocabularies", w, dir, chunks)
}

// checkMergedImage writes each chunk as a segment, merges the opened
// segments with WriteMerged and holds the file to Encode(Merge(parts))
// byte for byte, then sweeps the opened result against the heap corpus
// of the concatenated chunks.
func checkMergedImage(t *testing.T, label string, w *world.World, dir string, chunks [][]microblog.Tweet) {
	t.Helper()
	var segs []*diskseg.Segment
	var parts []microblog.Part
	var all []microblog.Tweet
	for _, chunk := range chunks {
		path := filepath.Join(dir, fmt.Sprintf("part-%d.esg", len(segs)))
		if err := diskseg.Write(path, microblog.FromTweets(w, chunk)); err != nil {
			t.Fatal(err)
		}
		s, err := diskseg.Open(path, diskseg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		segs = append(segs, s)
		parts = append(parts, s)
		all = append(all, chunk...)
	}
	path := filepath.Join(dir, "merged.esg")
	if err := diskseg.WriteMerged(path, segs); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := diskseg.Encode(microblog.Merge(w, parts))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%s: merged image (%d bytes) differs from Encode(Merge) (%d bytes) at byte %d", label, len(got), len(want), at)
	}

	m, err := diskseg.Open(path, diskseg.Options{})
	if err != nil {
		t.Fatalf("%s: merged image does not open: %v", label, err)
	}
	defer m.Release()
	heap := microblog.FromTweets(w, all)
	if m.NumTweets() != heap.NumTweets() || m.NumTerms() != heap.NumTerms() {
		t.Fatalf("%s: %d posts / %d terms, heap has %d / %d", label, m.NumTweets(), m.NumTerms(), heap.NumTweets(), heap.NumTerms())
	}
	heap.Terms(func(term string, _ int) {
		if g, h := m.Postings(term, nil), heap.Postings(term); !slices.Equal(g, h) {
			t.Fatalf("%s: postings of %q: %v, heap has %v", label, term, g, h)
		}
	})
	var scratch []world.UserID
	posts := m.Tweets()
	for i := 0; i < heap.NumTweets(); i++ {
		id := microblog.TweetID(i)
		g, h := &posts[i], heap.Tweet(id)
		if g.ID != h.ID || g.Author != h.Author || g.Text != h.Text || g.Topic != h.Topic ||
			g.RetweetCount != h.RetweetCount || !slices.Equal(g.Terms, h.Terms) || !slices.Equal(g.Mentions, h.Mentions) {
			t.Fatalf("%s: post %d:\n  merged %+v\n  heap   %+v", label, i, g, h)
		}
		ga, gr, gh, gm := m.Features(id, true, &scratch)
		ha, hr, hh, hm := heap.Features(id, true, nil)
		if ga != ha || gr != hr || gh != hh || !slices.Equal(gm, hm) {
			t.Fatalf("%s: features of post %d: (%d %d %v %v), heap (%d %d %v %v)", label, i, ga, gr, gh, gm, ha, hr, hh, hm)
		}
	}
	for u := 0; u < heap.NumUsers(); u++ {
		id := world.UserID(u)
		if m.NumTweetsBy(id) != heap.NumTweetsBy(id) || m.NumMentionsOf(id) != heap.NumMentionsOf(id) ||
			m.NumRetweetsOf(id) != heap.NumRetweetsOf(id) {
			t.Fatalf("%s: user %d stats differ", label, u)
		}
	}
}
