package diskseg_test

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand/v2"
	"slices"
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
// request, so structural defects get past the CRCs — and holds both
// loaders to their contract: Open (over a file) and Load (the image in
// memory) agree, and either refuse the image with a diskseg sentinel,
// or every read the segment offers succeeds without a panic, every
// posting list and match it returns is strictly ascending inside the
// segment, and Scan over sub-ranges agrees with the scan over the whole
// segment. The block cache holds two blocks, so nearly every block read
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
		l, lerr := diskseg.Load(data, diskseg.Options{BlockCache: 2})
		if (err == nil) != (lerr == nil) {
			t.Fatalf("Open: %v, Load: %v — the loaders disagree", err, lerr)
		}
		if err != nil {
			if !errors.Is(err, diskseg.ErrTruncated) && !errors.Is(err, diskseg.ErrChecksum) && !errors.Is(err, diskseg.ErrCorrupt) {
				t.Fatalf("err = %v, want a diskseg sentinel", err)
			}
			return
		}
		defer s.Release()
		defer l.Release()
		checkReads(t, s, data)
		checkReads(t, l, data)
	})
}

// checkReads drives every read of an opened fuzz segment (see FuzzOpen).
func checkReads(t *testing.T, s *diskseg.Segment, data []byte) {
	n := s.NumTweets()
	ascending := func(what string, ids []microblog.TweetID) {
		for i, id := range ids {
			if int(id) >= n || (i > 0 && id <= ids[i-1]) {
				t.Fatalf("%s: ids %v not strictly ascending below %d", what, ids, n)
			}
		}
	}
	terms := s.TermList()
	var buf []microblog.TweetID
	for i, term := range terms {
		buf = s.Postings(term, buf)
		ascending("Postings "+term, buf)
		if i > 0 {
			q := terms[i-1] + " " + term
			buf = s.MatchAppend(q, buf)
			ascending("MatchAppend "+q, buf)
		}
	}
	var scratch []world.UserID
	for id := microblog.TweetID(0); int(id) < n; id++ {
		s.Features(id, true, &scratch)
	}
	all := scanAll(s)
	if len(all) != n {
		t.Fatalf("Scan yielded %d of %d posts", len(all), n)
	}
	// The scans over sub-ranges drawn from the image agree with the
	// whole scan post for post.
	r := rand.New(rand.NewPCG(uint64(len(data)), uint64(crc32.ChecksumIEEE(data))))
	for k := 0; k < 8; k++ {
		lo, hi := 0, n
		if k > 0 {
			lo = r.IntN(n + 1)
			hi = lo + r.IntN(n-lo+1)
		}
		id := lo
		s.Scan(lo, hi, func(tw *microblog.Tweet) {
			if w := &all[id]; tw.ID != microblog.TweetID(id) || tw.Author != w.Author || tw.Text != w.Text ||
				tw.Topic != w.Topic || !slices.Equal(tw.Terms, w.Terms) || !slices.Equal(tw.Mentions, w.Mentions) {
				t.Fatalf("Scan(%d, %d) post %d = %+v, the whole scan has %+v", lo, hi, id, *tw, *w)
			}
			id++
		})
		if id != hi {
			t.Fatalf("Scan(%d, %d) yielded %d posts", lo, hi, id-lo)
		}
	}
}
