package expertise

import (
	"testing"

	"repro/internal/microblog"
	"repro/internal/world"
)

// TestWireRoundTrips pins the codec: every row kind survives
// encode→decode bit-for-bit, including empty lists, and trailing bytes
// are handed back untouched.
func TestWireRoundTrips(t *testing.T) {
	rcs := []RawCandidate{
		{User: 0, Tweets: 1},
		{User: 3, Tweets: 2, Mentions: 5, Retweets: 700, Hashtagged: 1},
		{User: 4096, Retweets: 1 << 20},
	}
	buf := AppendRawCandidates(nil, rcs)
	buf = append(buf, 0xAA, 0xBB) // trailing bytes must survive
	got, rest, err := ConsumeRawCandidates(nil, buf)
	if err != nil || len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("raw candidates: err %v rest %v", err, rest)
	}
	if len(got) != len(rcs) {
		t.Fatalf("raw candidates: %d rows, want %d", len(got), len(rcs))
	}
	for i := range rcs {
		if got[i] != rcs[i] {
			t.Fatalf("row %d: %+v vs %+v", i, got[i], rcs[i])
		}
	}
	if got, rest, err := ConsumeRawCandidates(nil, AppendRawCandidates(nil, nil)); err != nil || len(got) != 0 || len(rest) != 0 {
		t.Fatalf("empty list: %v %v %v", got, rest, err)
	}

	stats := []UserStats{{}, {Tweets: 3, Mentions: 1, Retweets: 9}}
	gotStats, _, err := ConsumeUserStats(nil, AppendUserStats(nil, stats))
	if err != nil || len(gotStats) != 2 || gotStats[1] != stats[1] {
		t.Fatalf("user stats: %v %v", gotStats, err)
	}

	ids := []world.UserID{0, 1, 1, 40, 40, 500}
	gotIDs, _, err := ConsumeUserIDs(nil, AppendUserIDs(nil, ids))
	if err != nil || len(gotIDs) != len(ids) {
		t.Fatalf("user ids: %v %v", gotIDs, err)
	}
	for i := range ids {
		if gotIDs[i] != ids[i] {
			t.Fatalf("id %d: %d vs %d", i, gotIDs[i], ids[i])
		}
	}
}

// TestWireRejectsTruncationEverywhere cuts a valid encoding at every
// byte offset and requires a clean error (never a panic, never a
// silently short row set presented as complete with trailing garbage
// consumed).
func TestWireRejectsTruncationEverywhere(t *testing.T) {
	rcs := []RawCandidate{{User: 77, Tweets: 300, Mentions: 2, Retweets: 9000, Hashtagged: 1}, {User: 1 << 18}}
	whole := AppendRawCandidates(nil, rcs)
	for cut := 0; cut < len(whole); cut++ {
		if _, _, err := ConsumeRawCandidates(nil, whole[:cut]); err == nil {
			// A cut that still decodes must be impossible: the count
			// promises two rows and the bytes are not all there.
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(whole))
		}
	}
	statsWhole := AppendUserStats(nil, []UserStats{{Tweets: 1 << 20, Mentions: 3, Retweets: 4}})
	for cut := 0; cut < len(statsWhole); cut++ {
		if _, _, err := ConsumeUserStats(nil, statsWhole[:cut]); err == nil {
			t.Fatalf("stats truncation at %d decoded cleanly", cut)
		}
	}
	// A count field claiming far more rows than the payload holds must
	// fail before allocating.
	if _, _, err := ConsumeUserIDs(nil, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07}); err == nil {
		t.Fatal("absurd id count accepted")
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
