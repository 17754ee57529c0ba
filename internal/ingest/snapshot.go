package ingest

import (
	"maps"
	"sort"
	"sync"

	"repro/internal/microblog"
	"repro/internal/textutil"
	"repro/internal/world"
)

// Snapshot is one epoch-tagged immutable view of the stream: the base
// corpus, the sealed segments and a frozen prefix of the active tail.
// It satisfies expertise.Source, so the ranking path runs against it
// exactly as it runs against a frozen corpus. All methods are safe for
// concurrent use; what a snapshot answers never changes after
// publication.
//
// Tweet ids are global: [0, base.NumTweets()) addresses the base, then
// each sealed segment's range, then the tail. Tweet(id).ID is the
// segment-local id, not the global one.
type Snapshot struct {
	epoch     uint64
	base      *microblog.Corpus
	segs      []*segment
	tail      []microblog.Tweet
	tailStart microblog.TweetID
	gen       *tailGen // the generation tail is a prefix of

	// The tail's term index and stat deltas are taken lazily on first
	// use: publishing stays a pointer swap, and only snapshots that
	// actually serve a query pay for a view of their tail, once (see
	// ensureTail).
	once      sync.Once
	tailIdx   map[string][]microblog.TweetID // segment-local ids; lists may run past len(tail)
	tailStats map[world.UserID]userDelta
}

// userDelta is the active tail's contribution to one user's feature
// denominators.
type userDelta struct{ tweets, mentions, retweets int }

// Epoch identifies this view; it increases with every publish.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumTweets returns the number of posts visible in this view.
func (s *Snapshot) NumTweets() int { return int(s.tailStart) + len(s.tail) }

// NumSegments returns the sealed-segment count of this view.
func (s *Snapshot) NumSegments() int { return len(s.segs) }

// World returns the generating world.
func (s *Snapshot) World() *world.World { return s.base.World() }

// NumUsers returns the number of users in the generating world.
func (s *Snapshot) NumUsers() int { return s.base.NumUsers() }

// Tweet returns the post with the given global id — the log-paging
// read; ranking goes through Features. The returned tweet's ID field is
// segment-local.
func (s *Snapshot) Tweet(id microblog.TweetID) *microblog.Tweet {
	if int(id) < s.base.NumTweets() {
		return s.base.Tweet(id)
	}
	if id >= s.tailStart {
		return &s.tail[id-s.tailStart]
	}
	sg := s.segmentOf(id)
	return sg.tweet(id - sg.start)
}

// Features implements expertise.Source: the ranking features of the
// post with the given global id, from whichever of base, sealed segment
// (either tier) or tail holds it. A disk segment answers off the map
// without decoding the post.
func (s *Snapshot) Features(id microblog.TweetID, hashtag bool, scratch *[]world.UserID) (author world.UserID, retweets int, hashtagged bool, mentions []world.UserID) {
	if int(id) < s.base.NumTweets() {
		return s.base.Features(id, hashtag, scratch)
	}
	if id >= s.tailStart {
		return s.tail[id-s.tailStart].Features(hashtag)
	}
	sg := s.segmentOf(id)
	return sg.features(id-sg.start, hashtag, scratch)
}

// segmentOf returns the sealed segment holding global id: the last one
// starting at or before it.
func (s *Snapshot) segmentOf(id microblog.TweetID) *segment {
	n := sort.Search(len(s.segs), func(j int) bool { return s.segs[j].start > id })
	return s.segs[n-1]
}

// ensureTail takes this view's tail index and per-user deltas, once.
//
// The index is not built: the writer indexed every post of the tail
// when it arrived (tailGen). The view freezes that index by cloning the
// generation's map under the generation's lock — the one lock a reader
// takes, once per queried snapshot. The copied slice headers pin every
// posting list at its length of that moment: the writer only ever
// appends, so a later append lands past that length or in a new array
// and never rewrites an element the clone can see — the aliasing rule
// Snapshot.tail already lives by. The freeze may come long after
// publication (after more appends to the same lists, after the
// generation was sealed, after its segment was compacted away), so a
// frozen list can hold ids past this view's prefix; ids ascend, and the
// matcher cuts every result at len(tail).
//
// The per-user deltas are aggregates, not lists, so they stay per
// snapshot: one pass over the tail's integers.
func (s *Snapshot) ensureTail() {
	s.once.Do(func() {
		s.gen.mu.Lock()
		s.tailIdx = maps.Clone(s.gen.idx)
		s.gen.mu.Unlock()
		stats := make(map[world.UserID]userDelta, len(s.tail))
		for j := range s.tail {
			tw := &s.tail[j]
			d := stats[tw.Author]
			d.tweets++
			d.retweets += tw.RetweetCount
			stats[tw.Author] = d
			for _, m := range tw.Mentions {
				dm := stats[m]
				dm.mentions++
				stats[m] = dm
			}
		}
		s.tailStats = stats
	})
}

// NumTweetsBy returns how many visible posts the user authored, summed
// across base, sealed segments and the frozen tail.
func (s *Snapshot) NumTweetsBy(u world.UserID) int {
	n := s.base.NumTweetsBy(u)
	for _, sg := range s.segs {
		n += sg.numTweetsBy(u)
	}
	if len(s.tail) > 0 {
		s.ensureTail()
		n += s.tailStats[u].tweets
	}
	return n
}

// NumMentionsOf returns how many visible posts mention the user.
func (s *Snapshot) NumMentionsOf(u world.UserID) int {
	n := s.base.NumMentionsOf(u)
	for _, sg := range s.segs {
		n += sg.numMentionsOf(u)
	}
	if len(s.tail) > 0 {
		s.ensureTail()
		n += s.tailStats[u].mentions
	}
	return n
}

// NumRetweetsOf returns the total retweets the user's visible posts
// received.
func (s *Snapshot) NumRetweetsOf(u world.UserID) int {
	n := s.base.NumRetweetsOf(u)
	for _, sg := range s.segs {
		n += sg.numRetweetsOf(u)
	}
	if len(s.tail) > 0 {
		s.ensureTail()
		n += s.tailStats[u].retweets
	}
	return n
}

// Match returns the global ids of all visible posts containing every
// token of the query, sorted ascending; nil means no match. The result
// is freshly allocated — hot paths tokenize into their own scratch and
// call MatchTokensAppend.
func (s *Snapshot) Match(query string) []microblog.TweetID {
	out, _ := s.MatchTokensAppend(textutil.Tokenize(query), nil, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// MatchTokensAppend is the zero-copy matcher of the live path: it
// writes the global ids of the posts containing every one of tokens
// (one tokenized term — tokenized once by the caller, not once per
// segment) into dst (reusing its capacity, discarding its contents) and
// returns the filled buffer. Matching runs per segment through the
// frozen zero-copy path and rebases segment-local ids by the segment's
// start offset; because segments partition the id space in order, the
// concatenation is globally sorted with no merge step. local is a
// scratch buffer for the per-segment results; both buffers are returned
// for reuse.
func (s *Snapshot) MatchTokensAppend(tokens []string, dst, local []microblog.TweetID) (out, localOut []microblog.TweetID) {
	dst = s.base.MatchTokensAppend(tokens, dst)
	for _, sg := range s.segs {
		local = sg.matchAppend(tokens, local)
		for _, id := range local {
			dst = append(dst, id+sg.start)
		}
	}
	if len(s.tail) > 0 {
		s.ensureTail()
		local = microblog.IntersectPostings(local, s.tailIdx, tokens)
		// Cut at this view's own prefix (see ensureTail), then rebase.
		end := microblog.TweetID(len(s.tail))
		for _, id := range local {
			if id >= end {
				break
			}
			dst = append(dst, id+s.tailStart)
		}
	}
	return dst, local
}
