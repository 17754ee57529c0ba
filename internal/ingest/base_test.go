package ingest

// White-box tests of the base segment: New encodes the base corpus into
// the layout's first sealed segment and keeps no heap copy of it.

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/microblog"
	"repro/internal/textutil"
	"repro/internal/world"
)

// viewAnswers is what a view answers about its posts: every post as
// Scan yields it with its ranking features, the match on each term of
// the posts, and every user's stats.
func viewAnswers(s interface {
	NumTweets() int
	Scan(from, to int, fn func(*microblog.Tweet))
	MatchTokensAppend(tokens []string, dst, local []microblog.TweetID) ([]microblog.TweetID, []microblog.TweetID)
	Features(id microblog.TweetID, hashtag bool, scratch *[]world.UserID) (world.UserID, int, bool, []world.UserID)
	StatsInto(dst []microblog.UserStats, users []world.UserID) []microblog.UserStats
}, nu int) []string {
	var out, terms []string
	var scratch []world.UserID
	id := microblog.TweetID(0)
	s.Scan(0, s.NumTweets(), func(tw *microblog.Tweet) {
		au, rt, ht, ms := s.Features(id, true, &scratch)
		out = append(out, fmt.Sprint(tw.Author, tw.Text, tw.Mentions, tw.RetweetCount, tw.Topic, au, rt, ht, ms))
		terms = append(terms, tw.Terms...)
		id++
	})
	slices.Sort(terms)
	for _, tok := range slices.Compact(terms) {
		ids, _ := s.MatchTokensAppend([]string{tok}, nil, nil)
		out = append(out, fmt.Sprint(tok, ids))
	}
	users := make([]world.UserID, nu)
	for u := range users {
		users[u] = world.UserID(u)
	}
	return append(out, fmt.Sprint(s.StatsInto(nil, users)))
}

// coldView adapts a frozen corpus to viewAnswers' interface.
type coldView struct{ *microblog.Corpus }

func (c coldView) Scan(from, to int, fn func(*microblog.Tweet)) {
	tws := c.Tweets()[from:to]
	for i := range tws {
		fn(&tws[i])
	}
}

func (c coldView) MatchTokensAppend(tokens []string, dst, local []microblog.TweetID) ([]microblog.TweetID, []microblog.TweetID) {
	return c.Index().MatchAppend(dst, tokens), local
}

// match is s's AND-match of query, tokenized as the detectors tokenize
// a term.
func match(s *Snapshot, query string) []microblog.TweetID {
	out, _ := s.MatchTokensAppend(textutil.Tokenize(query), nil, nil)
	return out
}

// TestIndexLetsGoOfItsBase pins that the index holds its base only as
// the encoded segment: once the caller drops the corpus, a collection
// frees it while the index still serves every post of it exactly as the
// corpus did.
func TestIndexLetsGoOfItsBase(t *testing.T) {
	w := world.Build(world.TinyConfig())
	base := microblog.Generate(w, microblog.TinyGenConfig())
	n := base.NumTweets()
	held := weak.Make(base)
	idx := New(base, Config{DisableCompactor: true})
	defer idx.Close()
	base = nil
	runtime.GC()
	if held.Value() != nil {
		t.Fatal("the index still references its base corpus after New")
	}
	if got := idx.Base().NumTweets(); got != n || idx.Base().OnDisk() {
		t.Fatalf("base segment holds %d posts (on disk %v), want %d in memory", got, idx.Base().OnDisk(), n)
	}
	cold := microblog.Generate(w, microblog.TinyGenConfig())
	if got, want := viewAnswers(idx.Snapshot(), len(w.Users)), viewAnswers(coldView{cold}, len(w.Users)); !reflect.DeepEqual(got, want) {
		t.Fatal("the encoded base answers differently from the corpus it was built from")
	}
}

// TestEmptyBase pins an index over an empty base: an empty base
// segment, searches that find nothing, then ingested posts served — in
// the tail, sealed and compacted — as a cold corpus of them serves them.
func TestEmptyBase(t *testing.T) {
	w := world.Build(world.TinyConfig())
	idx := New(microblog.FromTweets(w, nil), Config{SealThreshold: 64, CompactFanIn: 2, DisableCompactor: true})
	defer idx.Close()
	if n := idx.Base().NumTweets(); n != 0 {
		t.Fatalf("empty base segment holds %d posts", n)
	}
	if got := match(idx.Snapshot(), "49ers"); len(got) != 0 {
		t.Fatalf("an empty index matched %v", got)
	}
	posts := sealPosts(w, 1001, 300)
	idx.IngestBatch(posts)
	tweets := make([]microblog.Tweet, len(posts))
	for i, p := range posts {
		tweets[i] = microblog.MakeTweet(p)
		tweets[i].ID = microblog.TweetID(i)
	}
	want := viewAnswers(coldView{microblog.FromTweets(w, slices.Clone(tweets))}, len(w.Users))
	if got := viewAnswers(idx.Snapshot(), len(w.Users)); !reflect.DeepEqual(got, want) {
		t.Fatal("fragmented index over an empty base differs from the cold corpus")
	}
	idx.Quiesce()
	if st := idx.Stats(); st.Segments != 1 || st.Compactions == 0 {
		t.Fatalf("want the seals compacted into one segment: %+v", st)
	}
	if got := viewAnswers(idx.Snapshot(), len(w.Users)); !reflect.DeepEqual(got, want) {
		t.Fatal("compacted index over an empty base differs from the cold corpus")
	}
}

// TestBaseOutlivesPreload pins the base segment's place in the layout:
// after an 80k-post preload and Quiesce, with a spill threshold the base
// is past, the base is still the first segment, whole and in memory,
// and no count of seals or segments includes it.
func TestBaseOutlivesPreload(t *testing.T) {
	w := world.Build(world.TinyConfig())
	base := microblog.Generate(w, microblog.TinyGenConfig())
	n := base.NumTweets()
	cfg := DefaultConfig()
	cfg.SpillDir, cfg.SpillThreshold = t.TempDir(), n/2
	idx := New(base, cfg)
	defer idx.Close()
	posts := sealPosts(w, 1002, 80_000)
	for rest := posts; len(rest) > 0; {
		k := min(512, len(rest))
		idx.IngestBatch(rest[:k])
		rest = rest[k:]
	}
	idx.Quiesce()
	st := idx.Stats()
	idx.mu.Lock()
	first, segs := idx.sealed[0], len(idx.sealed)
	idx.mu.Unlock()
	if first.Segment != idx.Base() || first.start != 0 || first.NumTweets() != n || first.OnDisk() {
		t.Fatalf("first segment: start %d, %d posts, on disk %v; want the %d-post base in memory", first.start, first.NumTweets(), first.OnDisk(), n)
	}
	if st.Seals != int64(len(posts)/cfg.SealThreshold) || st.Segments != segs-1 || st.DiskSegments == 0 || st.NumTweets != n+len(posts) {
		t.Fatalf("preload layout %+v over %d segments, want %d seals and the base uncounted", st, segs, len(posts)/cfg.SealThreshold)
	}
}
