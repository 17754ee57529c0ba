package diskseg_test

import (
	"fmt"
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
	if err := writeImage(path, c); err != nil {
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

// BenchmarkDiskSegScan measures the log-paging read: one sequential
// Scan over every post of the segment, each tweet block decoded once
// off the map, past the block cache. The allocations are the posts'
// own texts, term lists and mention lists.
func BenchmarkDiskSegScan(b *testing.B) {
	c, s := benchSegment(b, 0)
	n := c.NumTweets()
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Scan(0, n, func(tw *microblog.Tweet) { sink += len(tw.Text) })
	}
	featuresSink = sink
	b.ReportMetric(float64(n), "tweets")
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
		if err := writeImage(path, c); err != nil {
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

// segmentImage encodes n posts of the stream as one segment image.
func segmentImage(b *testing.B, w *world.World, n int) []byte {
	b.Helper()
	stream := microblog.NewPostStream(w, microblog.DefaultStreamConfig(uint64(n)))
	posts := make([]microblog.Post, n)
	for i := range posts {
		posts[i] = stream.Next()
	}
	img, err := diskseg.Encode(microblog.BuildCorpus(w, posts))
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkDiskSegEncode measures a seal's encode: one 128-post corpus
// rendered into its image, assembled in one exactly sized buffer.
func BenchmarkDiskSegEncode(b *testing.B) {
	w := world.Build(world.TinyConfig())
	stream := microblog.NewPostStream(w, microblog.DefaultStreamConfig(128))
	posts := make([]microblog.Post, 128)
	for i := range posts {
		posts[i] = stream.Next()
	}
	c := microblog.BuildCorpus(w, posts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diskseg.Encode(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskSegOpen measures what opening a segment costs by its
// size — every seal and every compaction loads one: the whole-image
// validation, and allocations that do not grow with the dictionary.
func BenchmarkDiskSegOpen(b *testing.B) {
	w := world.Build(world.TinyConfig())
	for _, n := range []int{128, 512, 2048} {
		img := segmentImage(b, w, n)
		b.Run(fmt.Sprintf("posts=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := diskseg.Load(img, diskseg.Options{})
				if err != nil {
					b.Fatal(err)
				}
				s.Release()
			}
		})
	}
}
