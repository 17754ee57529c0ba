package expertise

import (
	"testing"

	"repro/internal/microblog"
	"repro/internal/world"
)

// queriesForRawTests spans answered, mention-heavy and unanswerable
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

// TestRawMergeSingleSourceEqualsCandidatesFrom pins the degenerate
// scatter-gather: extracting raw candidates from one source and merging
// the single list must reproduce CandidatesFrom bit for bit — same
// users, same float features, same order — under both the production
// and the extended feature set.
func TestRawMergeSingleSourceEqualsCandidatesFrom(t *testing.T) {
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	for _, params := range []Params{DefaultParams(), ExtendedParams()} {
		r := NewRanker(c.NumUsers(), params)
		for _, q := range rawTestQueries {
			matched := c.Match(q)
			want := r.CandidatesFrom(c, matched)
			raw := r.RawCandidatesInto(nil, c, matched)
			got := r.MergeRawCandidates(nil, []Source{c}, raw)
			if len(want) == 0 {
				if len(got) != 0 {
					t.Fatalf("%q: merge produced %d candidates from empty match", q, len(got))
				}
				continue
			}
			expertsEqual(t, "candidates "+q, got, want)
			expertsEqual(t, "ranked "+q, r.Rank(got), r.Rank(want))
		}
	}
}

// TestRawMergePartitionedEqualsWhole is the heart of the sharded
// correctness argument: split a corpus's tweets by author across two
// sources, extract raw candidates per source from per-source matches,
// merge — the result must be bit-identical to a single-source
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
			want := r.CandidatesFrom(whole, whole.Match(q))
			raw0 := r.RawCandidatesInto(nil, shards[0], shards[0].Match(q))
			raw1 := r.RawCandidatesInto(nil, shards[1], shards[1].Match(q))
			got := r.MergeRawCandidates(nil, []Source{shards[0], shards[1]}, raw0, raw1)
			if len(want) == 0 {
				if len(got) != 0 {
					t.Fatalf("%q: merge produced %d candidates from empty match", q, len(got))
				}
				continue
			}
			expertsEqual(t, "partitioned candidates "+q, got, want)
			expertsEqual(t, "partitioned ranked "+q, r.Rank(got), r.Rank(want))
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
			matched := c.Match(q)
			raw = r.RawCandidatesInto(raw, c, matched)
			cands = r.MergeRawCandidates(cands, []Source{c}, raw)
			want := r.CandidatesFrom(c, matched)
			if len(want) == 0 && len(cands) == 0 {
				continue
			}
			expertsEqual(t, "reused "+q, cands, want)
		}
	}
}

// TestGatherPiecesMatchMergeRawCandidates pins the restructured gather
// stage against its one-call ancestor: MergeRawNumerators + per-source
// Source.StatsInto/AddUserStats + FinalizeRaw must equal
// MergeRawCandidates exactly — same users, same floats — because the
// scatter-gather coordinator now runs the pieces (with the stats leg
// batched per shard, possibly over a wire) instead of the wrapper.
func TestGatherPiecesMatchMergeRawCandidates(t *testing.T) {
	w := world.Build(world.TinyConfig())
	corpus := microblog.Generate(w, microblog.TinyGenConfig())
	half := microblog.TweetID(corpus.NumTweets() / 2)
	r := NewRanker(corpus.NumUsers(), DefaultParams())

	var matchedA, matchedB []microblog.TweetID
	for id := microblog.TweetID(0); int(id) < corpus.NumTweets(); id++ {
		if id < half {
			matchedA = append(matchedA, id)
		} else {
			matchedB = append(matchedB, id)
		}
	}
	listA := r.RawCandidatesInto(nil, corpus, matchedA)
	listB := r.RawCandidatesInto(nil, corpus, matchedB)

	srcs := []Source{corpus, corpus}
	want := r.MergeRawCandidates(nil, srcs, listA, listB)

	merged := MergeRawNumerators(nil, listA, listB)
	users := make([]world.UserID, len(merged))
	for i := range merged {
		users[i] = merged[i].User
	}
	denoms := make([]UserStats, len(merged))
	for _, src := range srcs {
		AddUserStats(denoms, src.StatsInto(nil, users))
	}
	got := r.FinalizeRaw(nil, merged, denoms, w)

	if len(got) != len(want) {
		t.Fatalf("%d candidates, wrapper produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
