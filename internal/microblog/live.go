// Live-corpus construction. Every Corpus is built one way: FromTweets
// adopts rendered tweets, adds each to its TermIndex and computes the
// per-user counters once. Generate, BuildCorpus and ExtendedWith each
// hand it one fresh slice: it is the reference every live path must
// equal (a sealed image ≡ the image of FromTweets over the same posts,
// a quiesced index ≡ ExtendedWith). The streaming ingestion subsystem
// (internal/ingest) builds no Corpus: its writer adds each post to a
// TermIndex of its own as the post arrives, which a seal encodes as
// built (internal/diskseg) without tokenizing, re-indexing or looking
// up a post's terms.
// PostStream renders an endless deterministic stream of live posts
// through the base corpus's poster, feeding load generators and the
// streaming demo.
package microblog

import (
	"repro/internal/textutil"
	"repro/internal/world"
	"repro/internal/xrand"
)

// Post is one raw incoming microblog post, before truncation and
// tokenization. It is the wire format of the live ingestion path.
type Post struct {
	Author world.UserID
	Text   string
	// Mentions lists the users @-mentioned in the post.
	Mentions []world.UserID
	// RetweetCount is how many times the post was retweeted.
	RetweetCount int
	// Topic is generator ground truth (-1 for chatter).
	Topic world.TopicID
}

// MakeTweet renders a post into an unindexed Tweet: the text is
// truncated to 140 runes and tokenized exactly as Generate does, so a
// post ingested live and the same post in a cold rebuild carry
// identical terms. The ID is left for the indexing corpus to assign.
func MakeTweet(p Post) Tweet {
	text := textutil.TruncateRunes(p.Text, 140)
	return Tweet{
		Author:       p.Author,
		Text:         text,
		Terms:        textutil.Tokenize(text),
		Mentions:     p.Mentions,
		RetweetCount: p.RetweetCount,
		Topic:        p.Topic,
	}
}

// FromTweets indexes an already-rendered tweet sequence and adopts it:
// the corpus holds the caller's array, each tweet's ID is set to its
// position in place, and Terms slices are added to the term index as
// they are, not re-tokenized. The caller must not use the slice again.
// It is the from-scratch reference a seal is checked against, and the
// partition constructor of internal/shard.
func FromTweets(w *world.World, tweets []Tweet) *Corpus {
	nu := len(w.Users)
	counters := make([]int, 3*nu)
	c := &Corpus{
		w:          w,
		tweets:     tweets,
		tweetsBy:   counters[:nu:nu],
		mentionsOf: counters[nu : 2*nu : 2*nu],
		retweetsOf: counters[2*nu:],
	}
	for i := range tweets {
		tw := &tweets[i]
		tw.ID = TweetID(i)
		c.index.Add(tw.ID, tw.Terms)
		c.tweetsBy[tw.Author]++
		for _, m := range tw.Mentions {
			c.mentionsOf[m]++
		}
		c.retweetsOf[tw.Author] += tw.RetweetCount
	}
	return c
}

// BuildCorpus renders and indexes raw posts (ids 0..len(posts)-1).
func BuildCorpus(w *world.World, posts []Post) *Corpus {
	tweets := make([]Tweet, len(posts))
	for i, p := range posts {
		tweets[i] = MakeTweet(p)
	}
	return FromTweets(w, tweets)
}

// ExtendedWith returns a new corpus holding c's tweets followed by the
// rendered posts — the cold, from-scratch rebuild a quiesced live index
// must be bit-identical to. c is not modified.
func (c *Corpus) ExtendedWith(posts []Post) *Corpus {
	all := make([]Tweet, 0, len(c.tweets)+len(posts))
	all = append(all, c.tweets...)
	for _, p := range posts {
		all = append(all, MakeTweet(p))
	}
	return FromTweets(c.w, all)
}

// Tweets returns the corpus's tweet slice in id order. The slice is
// index-owned — callers must treat it as read-only.
func (c *Corpus) Tweets() []Tweet { return c.tweets }

// Index returns the corpus's term index, numbered in post order and
// keeping no TermOf (see TermIndex: read-only).
func (c *Corpus) Index() *TermIndex { return &c.index }

// StreamConfig tunes a PostStream.
type StreamConfig struct {
	Seed uint64
}

// DefaultStreamConfig returns the configuration of the stream seeded
// with seed.
func DefaultStreamConfig(seed uint64) StreamConfig {
	return StreamConfig{Seed: seed}
}

// PostStream is an endless deterministic generator of live posts,
// rendered by the poster that renders Generate's: experts post topical
// keywords by TweetRate, casuals post chatter, spammers stuff trending
// keywords, and fans occasionally mention productive experts. It is not
// safe for concurrent use — give each ingester goroutine its own stream
// (vary the seed).
type PostStream struct {
	*poster
	authors *xrand.Weighted
}

// NewPostStream builds a stream over w, deterministic in cfg.Seed.
func NewPostStream(w *world.World, cfg StreamConfig) *PostStream {
	rng := xrand.New(cfg.Seed)
	// Author selection is weighted by each user's mean posting volume,
	// so the live mix matches the static corpus's authorship skew.
	gen := DefaultGenConfig()
	weights := make([]float64, len(w.Users))
	for i := range w.Users {
		weights[i] = gen.meanPosts(&w.Users[i]) + 1e-9
	}
	authors := xrand.NewWeighted(rng.Split(), weights)
	return &PostStream{poster: newPoster(w, rng), authors: authors}
}

// Next returns the next post of the stream. Where the base corpus adds
// a fan's mention after an expert's topical post, the stream emits the
// mention instead of it.
func (s *PostStream) Next() Post {
	u := &s.w.Users[s.authors.Draw()]
	switch u.Kind {
	case world.ExpertUser, world.NewsUser:
		topic, ok := s.topicOf(u)
		if !ok {
			return s.chatter(u.ID)
		}
		if s.rng.Bool(streamMentionRate*u.Influence*2) && len(s.fans) > 0 {
			return s.mention(u.ID, topic)
		}
		return s.topical(u.ID, topic)
	case world.SpamUser:
		return s.spam(u.ID)
	default:
		return s.chatter(u.ID)
	}
}
