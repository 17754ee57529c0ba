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
	"repro/internal/race"
	"repro/internal/world"
	"repro/internal/xrand"
)

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
// tweet sequence cut into 1–6 parts at random points, each part an
// in-memory segment (Load) or a written-and-opened file, EncodeMerged —
// which concatenates the parts' posting lists and re-indexes nothing —
// renders exactly the image Encode renders for FromTweets over the
// concatenation, and the image loads. The sequence carries the cases a
// list concatenation can get wrong: a token repeated inside one post, a
// post with no terms, a term present in one part only.
func TestMergeEqualsRebuild(t *testing.T) {
	w := world.Build(world.TinyConfig())
	tweets := mergeStream(w)
	rebuild := microblog.FromTweets(w, slices.Clone(tweets)) // FromTweets adopts its slice
	if len(rebuild.Postings("onlyhere")) != 1 || len(rebuild.Tweet(41).Terms) != 0 {
		t.Fatal("the special posts are not in the sequence")
	}
	want, err := diskseg.Encode(rebuild)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rng := xrand.New(606)
	sawDisk, sawMem := false, false
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

		var parts []*diskseg.Segment
		label := fmt.Sprintf("round %d:", round)
		for j := 0; j+1 < len(bounds); j++ {
			img, err := diskseg.Encode(microblog.FromTweets(w, slices.Clone(tweets[bounds[j]:bounds[j+1]])))
			if err != nil {
				t.Fatal(err)
			}
			var s *diskseg.Segment
			if rng.Bool(0.5) {
				sawMem = true
				s, err = diskseg.Load(img)
				label += fmt.Sprintf(" mem[%d:%d]", bounds[j], bounds[j+1])
			} else {
				sawDisk = true
				path := filepath.Join(dir, fmt.Sprintf("r%d-p%d.esg", round, j))
				if err := diskseg.WriteFile(path, img); err != nil {
					t.Fatal(err)
				}
				s, err = diskseg.Open(path, nil)
				label += fmt.Sprintf(" disk[%d:%d]", bounds[j], bounds[j+1])
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			parts = append(parts, s)
		}
		got, err := diskseg.EncodeMerged(parts)
		if err != nil {
			t.Fatalf("%s %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s merged image (%d bytes) differs from the rebuild's (%d bytes)", label, len(got), len(want))
		}
		merged, err := diskseg.Load(got)
		if err != nil {
			t.Fatalf("%s merged image does not load: %v", label, err)
		}
		merged.Release()
	}
	if !sawDisk || !sawMem {
		t.Fatalf("parts drawn: disk %v, memory %v — want both", sawDisk, sawMem)
	}
}

// TestMergeAllocs pins what a compaction costs: merging four segments
// allocates the merged image, its sections and the per-part term
// remaps — a count that does not grow with the terms merged (4 × 128
// and 4 × 512 posts), where a merge through heap corpora allocated a
// posting list per term. The one thing that grows is the decode buffer
// of the longest merged posting list, by doubling: 11 and 13 allocs.
func TestMergeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	w := world.Build(world.TinyConfig())
	stream := microblog.NewPostStream(w, microblog.DefaultStreamConfig(404))
	var counts []float64
	for _, per := range []int{128, 512} {
		parts := make([]*diskseg.Segment, 4)
		for i := range parts {
			posts := make([]microblog.Post, per)
			for j := range posts {
				posts[j] = stream.Next()
			}
			img, err := diskseg.Encode(microblog.BuildCorpus(w, posts))
			if err != nil {
				t.Fatal(err)
			}
			if parts[i], err = diskseg.Load(img); err != nil {
				t.Fatal(err)
			}
			defer parts[i].Release()
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := diskseg.EncodeMerged(parts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("4 × %d merge: %v allocs", per, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] > 30 || counts[1] > counts[0]+3 {
		t.Fatalf("merge allocations %v for 4 × 128 and 4 × 512 posts, want ≤ 30 and flat", counts)
	}
}

// TestMergedImageEqualsEncode is the property every compaction rests
// on: EncodeMerged over opened segments, written out by WriteFile, is
// exactly the bytes Encode writes for FromTweets over their posts back
// to back. Splits of the merge stream at seeded points cover fan-in
// 2–5, part sizes off the 64-post tweet-block and 128-id posting-block
// grids and a one-post part; a second set of parts shares no term at
// all. The merged file then opens
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
// segments with EncodeMerged, writes the image with WriteFile and holds
// the file to Encode(FromTweets) of the concatenated chunks byte for
// byte, then sweeps the opened result against that heap corpus.
func checkMergedImage(t *testing.T, label string, w *world.World, dir string, chunks [][]microblog.Tweet) {
	t.Helper()
	var segs []*diskseg.Segment
	var all []microblog.Tweet
	for _, chunk := range chunks {
		path := filepath.Join(dir, fmt.Sprintf("part-%d.esg", len(segs)))
		if err := writeImage(path, microblog.FromTweets(w, slices.Clone(chunk))); err != nil {
			t.Fatal(err)
		}
		s, err := diskseg.Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		segs = append(segs, s)
		all = append(all, chunk...)
	}
	path := filepath.Join(dir, "merged.esg")
	img, err := diskseg.EncodeMerged(segs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := diskseg.WriteFile(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap := microblog.FromTweets(w, all)
	want, err := diskseg.Encode(heap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%s: merged image (%d bytes) differs from Encode(FromTweets) (%d bytes) at byte %d", label, len(got), len(want), at)
	}

	m, err := diskseg.Open(path, nil)
	if err != nil {
		t.Fatalf("%s: merged image does not open: %v", label, err)
	}
	defer m.Release()
	if m.NumTweets() != heap.NumTweets() || len(m.TermList()) != heap.NumTerms() {
		t.Fatalf("%s: %d posts / %d terms, heap has %d / %d", label, m.NumTweets(), len(m.TermList()), heap.NumTweets(), heap.NumTerms())
	}
	heap.Terms(func(term string, _ []microblog.TweetID) {
		if g, h := m.Postings(term, nil), heap.Postings(term); !slices.Equal(g, h) {
			t.Fatalf("%s: postings of %q: %v, heap has %v", label, term, g, h)
		}
	})
	var scratch []world.UserID
	posts := scanAll(m)
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
