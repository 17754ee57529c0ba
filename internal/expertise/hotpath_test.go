package expertise

import (
	"sort"
	"testing"

	"repro/internal/microblog"
	"repro/internal/world"
	"repro/internal/xrand"
)

func randomSortedLists(rng *xrand.RNG, maxLists int) [][]microblog.TweetID {
	nLists := rng.Intn(maxLists + 1)
	lists := make([][]microblog.TweetID, nLists)
	for i := range lists {
		n := rng.Intn(60)
		seen := map[microblog.TweetID]bool{}
		for len(seen) < n {
			seen[microblog.TweetID(rng.Intn(200))] = true
		}
		l := make([]microblog.TweetID, 0, n)
		for id := 0; id < 200; id++ {
			if seen[microblog.TweetID(id)] {
				l = append(l, microblog.TweetID(id))
			}
		}
		lists[i] = l
	}
	return lists
}

// TestMergeTweetsEqualsUnionTweets is the k-way-merge equivalence test:
// on random sorted lists (including empty lists, no lists, and heavy
// overlap) MergeTweetsInto must produce exactly UnionTweets' output.
func TestMergeTweetsEqualsUnionTweets(t *testing.T) {
	rng := xrand.New(1234)
	var buf []microblog.TweetID
	var frontier [][]microblog.TweetID
	for trial := 0; trial < 400; trial++ {
		lists := randomSortedLists(rng, 12)
		want := UnionTweets(lists...)
		buf, frontier = MergeTweetsInto(buf, frontier, lists...)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: merge len %d, union len %d (lists=%v)", trial, len(buf), len(want), lists)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d: merge[%d]=%d union[%d]=%d", trial, i, buf[i], i, want[i])
			}
		}
	}
	if got, _ := MergeTweetsInto(nil, nil); len(got) != 0 {
		t.Fatalf("MergeTweetsInto() = %v, want empty", got)
	}
}

// referenceRank reproduces the pre-top-k selection tail of rank: full
// sort of the thresholded pool, then truncate.
func referenceRank(candidates []Expert, minZ float64, max int) []Expert {
	kept := make([]Expert, 0, len(candidates))
	for _, e := range candidates {
		if e.Score >= minZ {
			kept = append(kept, e)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Score != kept[j].Score {
			return kept[i].Score > kept[j].Score
		}
		return kept[i].User < kept[j].User
	})
	if max > 0 && len(kept) > max {
		kept = kept[:max]
	}
	return kept
}

// TestSelectTopKMatchesFullSort drives the bounded-heap selection
// against sort-then-truncate on random pools, including score ties.
func TestSelectTopKMatchesFullSort(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		pool := make([]Expert, n)
		for i := range pool {
			pool[i] = Expert{
				User: world.UserID(i),
				// Coarse scores force plenty of ties through the
				// user-id tiebreak.
				Score: float64(rng.Intn(10)) / 3,
			}
		}
		// Shuffle users so ids are not already in heap order.
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			pool[i].User, pool[j].User = pool[j].User, pool[i].User
		}
		k := 1 + rng.Intn(n)
		want := referenceRank(pool, -1e9, k)
		poolCopy := append([]Expert(nil), pool...)
		got := selectTopK(poolCopy, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].User != want[i].User || got[i].Score != want[i].Score {
				t.Fatalf("trial %d rank %d: got {%d %v}, want {%d %v}",
					trial, i, got[i].User, got[i].Score, want[i].User, want[i].Score)
			}
		}
	}
}

// TestRankCappedEqualsFullSortTruncated checks end to end that a
// MaxResults-capped detector returns exactly the head of an uncapped
// detector's ranking, over real corpus queries.
func TestRankCappedEqualsFullSortTruncated(t *testing.T) {
	corpus := microblog.Generate(world.Build(world.TinyConfig()), microblog.TinyGenConfig())
	capped := DefaultParams()
	capped.MaxResults = 5
	uncapped := DefaultParams()
	uncapped.MaxResults = 0
	dc := NewRanker(corpus.NumUsers(), capped)
	du := NewRanker(corpus.NumUsers(), uncapped)
	queries := []string{"49ers", "diabetes", "nfl", "coffee", "really", "zzz-none"}
	for _, q := range queries {
		full := search(du, corpus, q)
		want := full
		if len(want) > 5 {
			want = want[:5]
		}
		got := search(dc, corpus, q)
		if len(got) != len(want) {
			t.Fatalf("query %q: capped len %d, full-head len %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %q rank %d: capped %+v, full-head %+v", q, i, got[i], want[i])
			}
		}
	}
}

// TestCandidatesScratchReuse hammers Ranker.CandidatesFrom repeatedly
// and interleaved to prove the pooled arena resets cleanly between
// calls and produces identical candidates every time.
func TestCandidatesScratchReuse(t *testing.T) {
	corpus := microblog.Generate(world.Build(world.TinyConfig()), microblog.TinyGenConfig())
	r := NewRanker(corpus.NumUsers(), DefaultParams())
	queries := []string{"49ers", "diabetes", "coffee", "really"}
	baseline := make(map[string][]Expert, len(queries))
	for _, q := range queries {
		baseline[q] = candidates(r, corpus, q)
	}
	for round := 0; round < 20; round++ {
		for _, q := range queries {
			got := candidates(r, corpus, q)
			want := baseline[q]
			if len(got) != len(want) {
				t.Fatalf("round %d query %q: %d candidates, want %d", round, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d query %q cand %d: %+v != %+v", round, q, i, got[i], want[i])
				}
			}
		}
	}
}
