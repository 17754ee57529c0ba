package diskseg_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/diskseg"
	"repro/internal/microblog"
	"repro/internal/world"
)

// memIO serves one in-memory image as every file, so the fuzzer opens
// segments without touching the file system.
type memIO []byte

func (m memIO) Open(string) (diskseg.File, error) { return memFile(m), nil }

type memFile []byte

func (m memFile) Size() (int64, error)  { return int64(len(m)), nil }
func (m memFile) Mmap() ([]byte, error) { return m, nil }
func (m memFile) Close() error          { return nil }

// fuzzImage encodes a 140-post corpus over a 12-user world: one term
// in every post (two posting blocks), three in fewer, posts with zero
// to two mentions and three tweet blocks, the last one short — every
// structure Open checks, in ≈ 3 KB, so the fuzzer's mutations and
// minimizations stay cheap.
func fuzzImage(t testing.TB) []byte {
	w := &world.World{Users: make([]world.User, 12)}
	texts := []string{"x a", "x b", "x a b", "x c #d"}
	posts := make([]microblog.Post, 140)
	for i := range posts {
		posts[i] = microblog.Post{Author: world.UserID(i % 12), Text: texts[i%len(texts)], RetweetCount: i % 3, Topic: -1}
		for m := 0; m < i%3; m++ {
			posts[i].Mentions = append(posts[i].Mentions, world.UserID((i+5*m)%12))
		}
	}
	img, err := diskseg.Encode(microblog.BuildCorpus(w, posts))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// FuzzOpen mutates a valid segment image — resealing the checksums on
// request, so structural defects get past the CRCs — and holds Open to
// its contract: it refuses the image with a diskseg sentinel, or every
// read the segment offers succeeds without a panic and every posting
// list and match it returns is strictly ascending inside the segment.
// The block cache holds two blocks, so nearly every block read
// recycles a slot.
func FuzzOpen(f *testing.F) {
	img := fuzzImage(f)
	f.Add(img, false)
	f.Add(img, true)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		data = bytes.Clone(data)
		if reseal {
			diskseg.Reseal(data)
		}
		s, err := diskseg.Open("fuzz.esg", diskseg.Options{IO: memIO(data), BlockCache: 2})
		if err != nil {
			if !errors.Is(err, diskseg.ErrTruncated) && !errors.Is(err, diskseg.ErrChecksum) && !errors.Is(err, diskseg.ErrCorrupt) {
				t.Fatalf("err = %v, want a diskseg sentinel", err)
			}
			return
		}
		defer s.Release()
		n := s.NumTweets()
		ascending := func(what string, ids []microblog.TweetID) {
			for i, id := range ids {
				if int(id) >= n || (i > 0 && id <= ids[i-1]) {
					t.Fatalf("%s: ids %v not strictly ascending below %d", what, ids, n)
				}
			}
		}
		var terms []string
		s.Terms(func(term string, postings int) { terms = append(terms, term) })
		var buf []microblog.TweetID
		for i, term := range terms {
			buf = s.Postings(term, buf)
			ascending("Postings "+term, buf)
			buf = s.AppendPostings(buf[:0], term)
			ascending("AppendPostings "+term, buf)
			if i > 0 {
				q := terms[i-1] + " " + term
				buf = s.MatchAppend(q, buf)
				ascending("MatchAppend "+q, buf)
			}
		}
		var scratch []world.UserID
		for id := microblog.TweetID(0); int(id) < n; id++ {
			if tw := s.Tweet(id); tw.ID != id {
				t.Fatalf("Tweet(%d) has id %d", id, tw.ID)
			}
			s.Features(id, true, &scratch)
		}
		if got := len(s.Tweets()); got != n {
			t.Fatalf("Tweets() returned %d of %d", got, n)
		}
	})
}
