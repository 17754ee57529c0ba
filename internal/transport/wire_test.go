package transport_test

import (
	"errors"
	"testing"

	"repro/internal/expertise"
	"repro/internal/transport"
	"repro/internal/world"
)

// TestWireRoundTrips pins the codec: every row kind survives
// encode→decode bit-for-bit, including empty lists, and trailing bytes
// are handed back untouched.
func TestWireRoundTrips(t *testing.T) {
	rcs := []expertise.RawCandidate{
		{User: 0, Tweets: 1},
		{User: 3, Tweets: 2, Mentions: 5, Retweets: 700, Hashtagged: 1},
		{User: 4096, Retweets: 1 << 20},
	}
	buf := transport.AppendRawCandidates(nil, rcs)
	buf = append(buf, 0xAA, 0xBB) // trailing bytes must survive
	got, rest, err := transport.ConsumeRawCandidates(nil, buf)
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
	if got, rest, err := transport.ConsumeRawCandidates(nil, transport.AppendRawCandidates(nil, nil)); err != nil || len(got) != 0 || len(rest) != 0 {
		t.Fatalf("empty list: %v %v %v", got, rest, err)
	}

	stats := []expertise.UserStats{{}, {Tweets: 3, Mentions: 1, Retweets: 9}}
	gotStats, _, err := transport.ConsumeUserStats(nil, transport.AppendUserStats(nil, stats))
	if err != nil || len(gotStats) != 2 || gotStats[1] != stats[1] {
		t.Fatalf("user stats: %v %v", gotStats, err)
	}

	ids := []world.UserID{0, 1, 1, 40, 40, 500}
	gotIDs, _, err := transport.ConsumeUserIDs(nil, transport.AppendUserIDs(nil, ids))
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
// byte offset and requires a clean ErrFrameTruncated (never a panic,
// never a silently short row set presented as complete with trailing
// garbage consumed).
func TestWireRejectsTruncationEverywhere(t *testing.T) {
	rcs := []expertise.RawCandidate{{User: 77, Tweets: 300, Mentions: 2, Retweets: 9000, Hashtagged: 1}, {User: 1 << 18}}
	whole := transport.AppendRawCandidates(nil, rcs)
	for cut := 0; cut < len(whole); cut++ {
		// A cut that still decodes must be impossible: the count
		// promises two rows and the bytes are not all there.
		if _, _, err := transport.ConsumeRawCandidates(nil, whole[:cut]); !errors.Is(err, transport.ErrFrameTruncated) {
			t.Fatalf("truncation at %d/%d: err %v", cut, len(whole), err)
		}
	}
	statsWhole := transport.AppendUserStats(nil, []expertise.UserStats{{Tweets: 1 << 20, Mentions: 3, Retweets: 4}})
	for cut := 0; cut < len(statsWhole); cut++ {
		if _, _, err := transport.ConsumeUserStats(nil, statsWhole[:cut]); !errors.Is(err, transport.ErrFrameTruncated) {
			t.Fatalf("stats truncation at %d: err %v", cut, err)
		}
	}
	// A count field claiming far more rows than the payload holds must
	// fail before allocating.
	if _, _, err := transport.ConsumeUserIDs(nil, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07}); !errors.Is(err, transport.ErrFrameTruncated) {
		t.Fatalf("absurd id count: err %v", err)
	}
}
