// Multi-source candidate extraction: the scatter-gather primitives the
// sharded live index (internal/shard, core.ShardedLiveDetector) builds
// on. A sharded query matches tweets independently on every shard and
// must still rank bit-identically to a single-node search over the
// union of the shards' content. Finished features cannot be merged
// after the fact — TS, MI and RI are ratios, and a user's mention
// counts span shards (a post mentioning u lives on its *author's*
// shard, and may not even match the query there) — so the scatter
// stage extracts raw integer numerators per shard (RawCandidatesInto)
// and the gather stage sums numerators per user (MergeRawNumerators),
// sums each denominator across every source (candidate or not, a
// user's denominators live partly on every shard) and performs each
// floating-point division exactly once, globally (FinalizeRaw). The
// coordinator that runs the gather is core.ShardedLiveDetector; the
// cold CandidatesFrom is the one-source case of the same three steps.
// Integer addition is associative, so the summed inputs equal the
// single-node inputs exactly, and one FinalizeRaw serves both.

package expertise

import (
	"math"

	"repro/internal/microblog"
	"repro/internal/world"
)

// RawCandidate is one user's un-finalized ranking numerators from a
// single source (shard): integer feature counts accumulated over that
// source's matched tweets. All fields are additive, so raw candidates
// for the same user from several shards merge exactly by summation.
// Denominators are deliberately absent — they are summed across every
// source at merge time, because a user's totals (mentions especially)
// live partly on shards where the user never surfaced as a candidate.
type RawCandidate struct {
	User world.UserID
	// Tweets, Mentions and Retweets are the TS/MI/RI numerators over
	// this source's matched tweets; Hashtagged backs the extended HT
	// feature and is only filled when an extended weight is set.
	Tweets, Mentions, Retweets, Hashtagged int
}

// UserStats is one user's feature denominators contributed by a single
// source: authored tweets, mentions received, retweets received. Like
// RawCandidate the fields are additive integers, so per-shard triples
// sum exactly across any partition — they are the second half of the
// scatter-gather wire contract (a shard reports numerators for its
// candidates and, on request, denominators for any user list). It is
// microblog's type, so a corpus answers Source.StatsInto directly.
type UserStats = microblog.UserStats

// RawCandidatesInto extracts raw candidates from an explicit set of
// matched tweet ids resolved against src, appending to dst (reusing its
// capacity, discarding its contents) sorted by ascending user id. It is
// the per-shard scatter stage: each shard's extraction reads only that
// shard's snapshot, so shards proceed concurrently with no shared
// state. extended asks for the hashtagged counts too; it is explicit
// because a shard extracts on behalf of a coordinator whose parameter
// set it does not share (Params.Extended on the coordinator's side).
// Safe for concurrent use (the per-call arena is pooled).
func (r *Ranker) RawCandidatesInto(dst []RawCandidate, src Source, matched []microblog.TweetID, extended bool) []RawCandidate {
	dst = dst[:0]
	if len(matched) == 0 {
		return dst
	}
	s := r.accumulate(src, matched, extended)
	defer r.release(s)
	return s.appendRows(dst)
}

// appendRows appends the arena's counters as raw candidate rows, in the
// ascending user order accumulate leaves touched in.
func (s *scratch) appendRows(dst []RawCandidate) []RawCandidate {
	for _, u := range s.touched {
		c := &s.byUser[u]
		dst = append(dst, RawCandidate{
			User:       u,
			Tweets:     c.tweets,
			Mentions:   c.mentions,
			Retweets:   c.retweets,
			Hashtagged: c.hashtagged,
		})
	}
	return dst
}

// MergeRawNumerators is the integer half of the gather stage: it k-way
// merges per-shard raw candidate lists (each sorted by ascending user
// id, as RawCandidatesInto emits them), summing the numerators of users
// present on several shards, appended to dst (capacity reused, contents
// discarded) in ascending user order — the order CandidatesFrom
// produces and Rank's z-score sums depend on. No floating point is
// involved, which is what lets the merge run anywhere — in process or
// on a scatter-gather coordinator summing rows that arrived over a
// wire — with a bit-identical outcome.
func MergeRawNumerators(dst []RawCandidate, lists ...[]RawCandidate) []RawCandidate {
	dst = dst[:0]
	// One cursor per list, on the stack for any ordinary shard count.
	var headArr [16]int
	heads := headArr[:0]
	for range lists {
		heads = append(heads, 0)
	}
	for {
		// Find the smallest next user across the list heads. Shard
		// counts are small (a handful to a few dozen), so a linear scan
		// beats heap bookkeeping.
		var minUser world.UserID
		found := false
		for li, l := range lists {
			if heads[li] < len(l) {
				if u := l[heads[li]].User; !found || u < minUser {
					minUser, found = u, true
				}
			}
		}
		if !found {
			return dst
		}
		var sum RawCandidate
		sum.User = minUser
		for li, l := range lists {
			if heads[li] < len(l) && l[heads[li]].User == minUser {
				rc := &l[heads[li]]
				sum.Tweets += rc.Tweets
				sum.Mentions += rc.Mentions
				sum.Retweets += rc.Retweets
				sum.Hashtagged += rc.Hashtagged
				heads[li]++
			}
		}
		dst = append(dst, sum)
	}
}

// FinalizeRaw is the floating-point half of the gather stage and the
// only code that turns counts into features: it turns globally summed
// numerators (merged, from MergeRawNumerators or one source's
// RawCandidatesInto) and globally summed denominators (denoms,
// positionally aligned with merged) into the candidate pool Rank
// expects, appended to dst (capacity reused, contents discarded). Each
// division happens exactly once, so the pool is bit-identical to a
// single-node extraction over the union of the sources' content. w
// supplies follower counts for the extended GI feature and may be nil
// when no extended weight is set.
func (r *Ranker) FinalizeRaw(dst []Expert, merged []RawCandidate, denoms []UserStats, w *world.World) []Expert {
	dst = dst[:0]
	extended := r.params.Extended()
	for i := range merged {
		sum := &merged[i]
		tot := &denoms[i]
		e := Expert{User: sum.User, OnTopicTweets: sum.Tweets}
		if tot.Tweets > 0 {
			e.TS = float64(sum.Tweets) / float64(tot.Tweets)
		}
		if tot.Mentions > 0 {
			e.MI = float64(sum.Mentions) / float64(tot.Mentions)
		}
		if tot.Retweets > 0 {
			e.RI = float64(sum.Retweets) / float64(tot.Retweets)
		}
		if extended {
			if sum.Tweets > 0 {
				e.HT = float64(sum.Hashtagged) / float64(sum.Tweets)
				e.AV = float64(sum.Retweets) / float64(sum.Tweets)
			}
			if w != nil {
				e.GI = math.Log1p(float64(w.User(sum.User).Followers))
			}
		}
		dst = append(dst, e)
	}
	return dst
}
