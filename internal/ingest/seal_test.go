package ingest

// White-box tests of the seal: they look at the sealed segment itself,
// which no exported surface hands out.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// sealedImage returns the bytes of a sealed segment, as its spill
// writes them.
func sealedImage(t *testing.T, seg *diskseg.Segment) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sealed.esg")
	if err := seg.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSealAdoptsIndex pins the seal: the sealed segment — the writer's
// incrementally kept index, adopted as it is and encoded — is the image
// of a from-scratch FromTweets over the same posts, byte for byte,
// which covers every tweet field, every posting list and the counters.
func TestSealAdoptsIndex(t *testing.T) {
	w := world.Build(world.TinyConfig())
	idx := New(microblog.FromTweets(w, nil), Config{SealThreshold: 64, DisableCompactor: true})
	defer idx.Close()
	posts := sealPosts(w, 707, 64)
	idx.IngestBatch(posts[:63])
	idx.Ingest(posts[63])
	if len(idx.sealed) != 1 || len(idx.active) != 0 {
		t.Fatalf("want exactly one seal, got %d segments and a %d-post tail", len(idx.sealed), len(idx.active))
	}
	got := idx.sealed[0]
	if got.OnDisk() {
		t.Fatal("a seal without a spill directory went to disk")
	}
	tweets := make([]microblog.Tweet, len(posts))
	for i, p := range posts {
		tweets[i] = microblog.MakeTweet(p)
	}
	want, err := diskseg.Encode(microblog.FromTweets(w, tweets))
	if err != nil {
		t.Fatal(err)
	}
	if img := sealedImage(t, got.Segment); !bytes.Equal(img, want) {
		t.Fatalf("sealed segment and rebuild encode differently (%d vs %d bytes)", len(img), len(want))
	}
}

// TestSealAllocs pins the stall a seal puts under the write lock: it
// encodes the tail into one exactly sized image and loads it — the
// corpus view and its counters, the sorted dictionary, the image, the
// loaded segment's dictionary and directories — plus the next layout
// slice, active array and generation (its term and user maps). The
// count does not grow with the posts or terms sealed (128, 512 and 2048
// — the default seal — posts alike: 19, of which the generation's user
// map is one). Adopting the tail as a heap corpus took 7, and the "≤ 8"
// bound that held it cannot hold once a seal encodes; the constant is
// what is pinned now.
func TestSealAllocs(t *testing.T) {
	w := world.Build(world.TinyConfig())
	base := microblog.FromTweets(w, nil)
	const runs = 10
	var counts []float64
	sizes := []int{128, 512, 2048}
	for _, n := range sizes {
		posts := sealPosts(w, 808, n)
		var idxs []*Index // AllocsPerRun calls once more to warm up
		for r := 0; r <= runs; r++ {
			idx := New(base, Config{SealThreshold: 2 * n, DisableCompactor: true})
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
		t.Logf("%d-post seal: %v allocs", n, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] > 24 || slices.ContainsFunc(counts, func(c float64) bool { return c != counts[0] }) {
		t.Fatalf("seal allocations %v for %v posts, want ≤ 24 and equal", counts, sizes)
	}
}

// TestSpillWritesTheSealedImage pins what a spill is now: it writes the
// in-memory segment's image to a file, byte for byte, and maps it — no
// re-encode — and every answer the segment gives (each post's match on
// each of its terms, its ranking features, every user's stats) is the
// same before and after.
func TestSpillWritesTheSealedImage(t *testing.T) {
	w := world.Build(world.TinyConfig())
	dir := t.TempDir()
	idx := New(microblog.FromTweets(w, nil), Config{
		SealThreshold: 64, DisableCompactor: true, SpillDir: dir, SpillThreshold: 64,
	})
	defer idx.Close()
	posts := sealPosts(w, 909, 64)
	idx.IngestBatch(posts)
	mem := idx.sealed[0]
	if len(idx.sealed) != 1 || mem.OnDisk() {
		t.Fatalf("want one in-memory seal, got %d segments", len(idx.sealed))
	}
	want := sealedImage(t, mem.Segment)

	type answer struct {
		matches  [][]microblog.TweetID
		features []string
		stats    []microblog.UserStats
	}
	answers := func(s *Snapshot) answer {
		var a answer
		var scratch []world.UserID
		for id := 0; id < s.NumTweets(); id++ {
			tw := microblog.MakeTweet(posts[id])
			for _, tok := range tw.Terms {
				a.matches = append(a.matches, s.Match(tok))
			}
			au, rt, ht, ms := s.Features(microblog.TweetID(id), true, &scratch)
			a.features = append(a.features, fmt.Sprint(au, rt, ht, ms))
		}
		users := make([]world.UserID, len(w.Users))
		for u := range users {
			users[u] = world.UserID(u)
		}
		a.stats = s.StatsInto(nil, users)
		return a
	}
	before := answers(idx.Snapshot())

	idx.SpillAll()
	if st := idx.Stats(); st.Spills != 1 || st.DiskSegments != 1 || !idx.sealed[0].OnDisk() {
		t.Fatalf("want the seal spilled: %+v", st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("spill directory holds %d entries (%v), want 1 file", len(ents), err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the spill wrote %d bytes that differ from the %d-byte sealed image", len(got), len(want))
	}
	if after := answers(idx.Snapshot()); !reflect.DeepEqual(after, before) {
		t.Fatal("answers changed across the spill")
	}
}
