package diskseg_test

import (
	"path/filepath"
	"testing"

	"repro/internal/diskseg"
	"repro/internal/microblog"
	"repro/internal/world"
)

// benchSegment writes the tiny corpus once and opens it with the given
// cache size.
func benchSegment(b *testing.B, cache int) (*microblog.Corpus, *diskseg.Segment) {
	b.Helper()
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	path := filepath.Join(b.TempDir(), "seg.esg")
	if err := diskseg.Write(path, c); err != nil {
		b.Fatal(err)
	}
	s, err := diskseg.Open(path, diskseg.Options{BlockCache: cache})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Release)
	return c, s
}

// BenchmarkDiskSegMatchHot measures the zero-copy match path with the
// working set in the block cache — the steady state of a hot term.
func BenchmarkDiskSegMatchHot(b *testing.B) {
	_, s := benchSegment(b, 0)
	var buf []microblog.TweetID
	buf = s.MatchAppend("49ers", buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.MatchAppend("49ers", buf)
	}
	b.ReportMetric(float64(len(buf)), "matches")
}

// BenchmarkDiskSegMatchUncached decodes every posting block off the
// map on every call — the per-query floor of a fully cold segment.
func BenchmarkDiskSegMatchUncached(b *testing.B) {
	_, s := benchSegment(b, -1)
	var buf []microblog.TweetID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.MatchAppend("49ers", buf)
	}
	b.ReportMetric(float64(len(buf)), "matches")
}

// BenchmarkDiskSegTweetHot measures random-access record decode
// through the tweet-block cache.
func BenchmarkDiskSegTweetHot(b *testing.B) {
	c, s := benchSegment(b, 0)
	n := c.NumTweets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Tweet(microblog.TweetID(i * 31 % n))
	}
}

// BenchmarkDiskSegFeaturesUncached measures what candidate extraction
// pays per matched post on a cold segment: the ranking features of
// scattered ids read in place off the map, block cache disabled. The
// row to hold is 0 allocs/op — the cost follows the posts matched, not
// the records decoded.
func BenchmarkDiskSegFeaturesUncached(b *testing.B) {
	c, s := benchSegment(b, -1)
	n := c.NumTweets()
	var scratch []world.UserID
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		author, retweets, _, mentions := s.Features(microblog.TweetID(i*31%n), true, &scratch)
		sink += int(author) + retweets + len(mentions)
	}
	featuresSink = sink
}

var featuresSink int

// BenchmarkDiskSegWrite measures the encode+write+reopen cost of one
// segment — the unit of background spill work.
func BenchmarkDiskSegWrite(b *testing.B) {
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, "seg.esg")
		if err := diskseg.Write(path, c); err != nil {
			b.Fatal(err)
		}
		s, err := diskseg.Open(path, diskseg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		s.Release()
	}
	b.ReportMetric(float64(c.NumTweets()), "tweets")
}
