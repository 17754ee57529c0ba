package shard_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
)

// TestPagePostsNegativeCursorIsEmpty pins the page loop's lower edge: a
// cursor before the log (what a wrapped wire value used to decode to)
// pages nothing instead of indexing the snapshot at -1.
func TestPagePostsNegativeCursorIsEmpty(t *testing.T) {
	p, _ := testPipeline(t)
	c := shard.New(p.Corpus, 1, ingest.Config{DisableCompactor: true})
	defer c.Close()
	local := c.Backend(0).(*shard.Local)
	posts, total := local.PagePosts(-1, 16)
	if len(posts) != 0 || total != p.Corpus.NumTweets() {
		t.Fatalf("PagePosts(-1): %d posts, total %d — want an empty page of a %d-post log",
			len(posts), total, p.Corpus.NumTweets())
	}
}

// TestPagePostsOverEveryTier pins the page loop over the log scan: one
// snapshot holding base, in-memory segments, disk segments and a tail, paged
// whole in cuts that are no multiple of a 64-post tweet block, and with
// from and max at the edges (max up to MaxInt: the in-process pager takes
// any). Every page equals the per-id loop over the cold corpus, total
// included.
func TestPagePostsOverEveryTier(t *testing.T) {
	p, _ := testPipeline(t)
	posts := streamPosts(p, 3101, 200)
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 24, CompactFanIn: 3, SpillDir: t.TempDir(), SpillThreshold: 72})
	defer idx.Close()
	idx.IngestBatch(posts)
	idx.Quiesce()
	if st := idx.Stats(); st.DiskSegments == 0 || st.DiskSegments == st.Segments || st.ActiveLen == 0 {
		t.Fatalf("want base, in-memory and disk segments and a tail: %+v", st)
	}
	local := shard.NewLocal(idx)
	cold := p.Corpus.ExtendedWith(posts)
	base, total := p.Corpus.NumTweets(), cold.NumTweets()
	page := func(from, max int) int {
		t.Helper()
		got, gotTotal := local.PagePosts(from, max)
		want := refPage(cold, from, max)
		if gotTotal != total || !samePosts(got, want) {
			t.Fatalf("PagePosts(%d, %d): %d posts, total %d; want %d posts, total %d",
				from, max, len(got), gotTotal, len(want), total)
		}
		return len(got)
	}
	for _, max := range []int{37, 100, 2048} {
		for from := base - 500; from < total; from += page(from, max) {
		}
	}
	for _, from := range []int{-1, 0, base - 1, base, total - 1, total, total + 5} {
		for _, max := range []int{-1, 0, 1, 63, 65, math.MaxInt} {
			page(from, max)
		}
	}
}

// refPage is the per-id page loop over the cold corpus that every
// PagePosts page is held to.
func refPage(cold *microblog.Corpus, from, max int) (posts []microblog.Post) {
	if max <= 0 || from < 0 {
		return nil
	}
	for gid := from; gid < cold.NumTweets() && len(posts) < max; gid++ {
		tw := cold.Tweet(microblog.TweetID(gid))
		posts = append(posts, microblog.Post{Author: tw.Author, Text: tw.Text, Mentions: tw.Mentions, RetweetCount: tw.RetweetCount, Topic: tw.Topic})
	}
	return posts
}

// samePosts compares two pages field by field, nil and empty mentions
// alike.
func samePosts(a, b []microblog.Post) bool {
	return slices.EqualFunc(a, b, func(x, y microblog.Post) bool {
		return x.Author == y.Author && x.Text == y.Text && x.RetweetCount == y.RetweetCount &&
			x.Topic == y.Topic && slices.Equal(x.Mentions, y.Mentions)
	})
}
