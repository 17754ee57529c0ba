package expertise

import (
	"math"
	"testing"

	"repro/internal/microblog"
	"repro/internal/world"
)

// rawTestQueries spans answered, mention-heavy and unanswerable
// shapes.
var rawTestQueries = []string{"49ers", "diabetes", "nfl", "coffee", "dow", "zzz-none"}

func expertsEqual(t *testing.T, label string, got, want []Expert) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d differs:\n  got  %+v\n  want %+v", label, i, got[i], want[i])
		}
	}
}

// gather is the coordinator's gather over in-process sources: the
// lists' numerators summed by MergeRawNumerators, every source's
// denominators for the merged users summed, then FinalizeRaw.
func gather(r *Ranker, dst []Expert, srcs []Source, lists ...[]RawCandidate) []Expert {
	merged := MergeRawNumerators(nil, lists...)
	users := make([]world.UserID, len(merged))
	for i := range merged {
		users[i] = merged[i].User
	}
	denoms := make([]UserStats, len(merged))
	for _, src := range srcs {
		for i, st := range src.StatsInto(nil, users) {
			denoms[i].Tweets += st.Tweets
			denoms[i].Mentions += st.Mentions
			denoms[i].Retweets += st.Retweets
		}
	}
	return r.FinalizeRaw(dst, merged, denoms, srcs[0].World())
}

// TestFeaturesAreExactFractions pins the formula itself on a corpus
// small enough to count by hand: every candidate's TS, MI and RI (and
// HT, AV and GI under ExtendedParams) is the written fraction, bit for
// bit, whether the corpus is one source or split by author into two.
func TestFeaturesAreExactFractions(t *testing.T) {
	w := &world.World{Users: []world.User{
		{ID: 0, Followers: 0}, {ID: 1, Followers: 9}, {ID: 2, Followers: 99}, {ID: 3, Followers: 3},
	}}
	posts := []microblog.Post{
		{Author: 0, Text: "coffee beans #brew", Mentions: []world.UserID{1}, RetweetCount: 3},
		{Author: 0, Text: "coffee again", RetweetCount: 1},
		{Author: 0, Text: "lunch time", Mentions: []world.UserID{1}, RetweetCount: 4},
		{Author: 1, Text: "morning coffee", Mentions: []world.UserID{2}},
		{Author: 2, Text: "tea #leaf", Mentions: []world.UserID{1, 3}, RetweetCount: 5},
		{Author: 3, Text: "coffee #beans", Mentions: []world.UserID{2}, RetweetCount: 2},
	}
	// "coffee" matches posts 0, 1, 3 and 5. Denominators over all six:
	// user 0 wrote 3 posts retweeted 8 times and is never mentioned;
	// user 1 wrote 1, is mentioned 3 times, never retweeted; user 2
	// wrote 1, mentioned twice, retweeted 5 times; user 3 wrote 1,
	// mentioned once, retweeted twice.
	base := []Expert{
		{User: 0, OnTopicTweets: 2, TS: 2.0 / 3, MI: 0, RI: 4.0 / 8},
		{User: 1, OnTopicTweets: 1, TS: 1.0 / 1, MI: 1.0 / 3, RI: 0},
		{User: 2, OnTopicTweets: 0, TS: 0.0 / 1, MI: 2.0 / 2, RI: 0.0 / 5},
		{User: 3, OnTopicTweets: 1, TS: 1.0 / 1, MI: 0.0 / 1, RI: 2.0 / 2},
	}
	extended := []Expert{
		{HT: 1.0 / 2, AV: 4.0 / 2, GI: math.Log1p(0)},
		{HT: 0.0 / 1, AV: 0.0 / 1, GI: math.Log1p(9)},
		{HT: 0, AV: 0, GI: math.Log1p(99)},
		{HT: 1.0 / 1, AV: 2.0 / 1, GI: math.Log1p(3)},
	}
	var whole []microblog.Tweet
	var halves [2][]microblog.Tweet
	for _, p := range posts {
		whole = append(whole, microblog.MakeTweet(p))
		halves[p.Author%2] = append(halves[p.Author%2], microblog.MakeTweet(p))
	}
	c := microblog.FromTweets(w, whole)
	shards := []Source{microblog.FromTweets(w, halves[0]), microblog.FromTweets(w, halves[1])}

	for _, params := range []Params{DefaultParams(), ExtendedParams()} {
		want := append([]Expert(nil), base...)
		if params.Extended() {
			for i := range want {
				want[i].HT, want[i].AV, want[i].GI = extended[i].HT, extended[i].AV, extended[i].GI
			}
		}
		r := NewRanker(len(w.Users), params)
		expertsEqual(t, "one source", r.CandidatesFrom(c, match(c, "coffee")), want)
		var lists [][]RawCandidate
		for _, s := range shards {
			lists = append(lists, r.RawCandidatesInto(nil, s, match(s.(*microblog.Corpus), "coffee"), params.Extended()))
		}
		expertsEqual(t, "two sources", gather(r, nil, shards, lists...), want)
	}
}

// TestRawMergePartitionedEqualsWhole is the heart of the sharded
// correctness argument: split a corpus's tweets by author across two
// sources, extract raw candidates per source from per-source matches,
// gather — the result must be bit-identical to a single-source
// extraction over the whole corpus. This exercises the cross-shard
// case the ratio features cannot survive naively: a user mentioned on
// both sides has mention numerators and denominators on both, and only
// the integer sums divide to the global ratio.
func TestRawMergePartitionedEqualsWhole(t *testing.T) {
	w := world.Build(world.TinyConfig())
	whole := microblog.Generate(w, microblog.TinyGenConfig())

	var parts [2][]microblog.Tweet
	for _, tw := range whole.Tweets() {
		parts[int(tw.Author)%2] = append(parts[int(tw.Author)%2], tw)
	}
	shards := [2]*microblog.Corpus{
		microblog.FromTweets(w, parts[0]),
		microblog.FromTweets(w, parts[1]),
	}

	for _, params := range []Params{DefaultParams(), ExtendedParams()} {
		r := NewRanker(whole.NumUsers(), params)
		for _, q := range rawTestQueries {
			want := r.CandidatesFrom(whole, match(whole, q))
			raw0 := r.RawCandidatesInto(nil, shards[0], match(shards[0], q), params.Extended())
			raw1 := r.RawCandidatesInto(nil, shards[1], match(shards[1], q), params.Extended())
			got := gather(r, nil, []Source{shards[0], shards[1]}, raw0, raw1)
			if len(want) == 0 {
				if len(got) != 0 {
					t.Fatalf("%q: merge produced %d candidates from empty match", q, len(got))
				}
				continue
			}
			expertsEqual(t, "partitioned candidates "+q, got, want)
			expertsEqual(t, "partitioned ranked "+q, r.Rank(nil, got), r.Rank(nil, want))
		}
	}
}

// TestRawCandidatesBufferReuse pins the zero-copy contract: passing the
// returned buffers back in must not change results.
func TestRawCandidatesBufferReuse(t *testing.T) {
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	r := NewRanker(c.NumUsers(), DefaultParams())
	var raw []RawCandidate
	var cands []Expert
	for i := 0; i < 3; i++ {
		for _, q := range rawTestQueries {
			matched := match(c, q)
			raw = r.RawCandidatesInto(raw, c, matched, false)
			cands = gather(r, cands, []Source{c}, raw)
			want := r.CandidatesFrom(c, matched)
			if len(want) == 0 && len(cands) == 0 {
				continue
			}
			expertsEqual(t, "reused "+q, cands, want)
		}
	}
}
