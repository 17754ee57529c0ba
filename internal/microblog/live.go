// Live-corpus construction: the entry points the streaming ingestion
// subsystem (internal/ingest) builds segments from, and the cold
// constructors it is checked against. A frozen Corpus is still produced
// by Generate. The streaming index indexes a post once, when it
// arrives, and carries that work forward: FromIndex adopts the term
// index the writer maintained (a seal) and Merge concatenates the
// posting lists of adjacent segments (a compaction) — neither tokenizes
// nor re-indexes a post. FromTweets, BuildCorpus and ExtendedWith index
// explicit posts from scratch; they are the reference every live path
// must equal (Merge(parts) ≡ FromTweets(concatenation), a quiesced index
// ≡ ExtendedWith). PostStream generates an endless deterministic stream
// of live posts from the same world model, feeding load generators and
// the streaming demo.
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

// newShell returns an empty corpus wired to w.
func newShell(w *world.World) *Corpus {
	return &Corpus{
		w:          w,
		termIndex:  map[string][]TweetID{},
		tweetsBy:   make([]int, len(w.Users)),
		mentionsOf: make([]int, len(w.Users)),
		retweetsOf: make([]int, len(w.Users)),
	}
}

// FromTweets indexes an explicit, already-rendered tweet sequence. IDs
// are reassigned to the position in the sequence; Terms slices are
// shared with the input, not re-tokenized. It is the from-scratch
// reference FromIndex and Merge are checked against, and the partition
// constructor of internal/shard.
func FromTweets(w *world.World, tweets []Tweet) *Corpus {
	c := newShell(w)
	c.tweets = make([]Tweet, 0, len(tweets))
	for _, tw := range tweets {
		c.appendTweet(tw)
	}
	c.buildIndex()
	return c
}

// BuildCorpus renders and indexes raw posts (ids 0..len(posts)-1).
func BuildCorpus(w *world.World, posts []Post) *Corpus {
	c := newShell(w)
	c.tweets = make([]Tweet, 0, len(posts))
	for _, p := range posts {
		c.appendTweet(MakeTweet(p))
	}
	c.buildIndex()
	return c
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
// index-owned — callers must treat it as read-only. Compaction uses it
// to concatenate adjacent segments.
func (c *Corpus) Tweets() []Tweet { return c.tweets }

// FromIndex adopts an already indexed tweet sequence as a corpus: no
// tweet is copied and no term is looked at. It trusts the caller that
// tweets[i].ID == i and that index maps exactly the tokens of those
// tweets to the ascending, duplicate-free ids of the tweets containing
// them — what a writer that indexed each post on arrival holds — and
// that neither is written again (the tweets array may be shared with
// other readers of the same prefix). The one thing it computes is the
// per-user counters: a single pass over integers.
func FromIndex(w *world.World, tweets []Tweet, index map[string][]TweetID) *Corpus {
	nu := len(w.Users)
	counters := make([]int, 3*nu)
	c := &Corpus{
		w:          w,
		tweets:     tweets,
		termIndex:  index,
		tweetsBy:   counters[:nu:nu],
		mentionsOf: counters[nu : 2*nu : 2*nu],
		retweetsOf: counters[2*nu:],
	}
	for i := range tweets {
		tw := &tweets[i]
		c.tweetsBy[tw.Author]++
		for _, m := range tw.Mentions {
			c.mentionsOf[m]++
		}
		c.retweetsOf[tw.Author] += tw.RetweetCount
	}
	return c
}

// Part is one input of Merge: an immutable indexed segment of either
// storage tier (*Corpus in heap, *diskseg.Segment on disk).
type Part interface {
	// NumTweets is the number of posts in the part.
	NumTweets() int
	// Tweets returns the part's posts in id order (a disk part decodes
	// them: a compaction reads every post once).
	Tweets() []Tweet
	// NumTerms is the number of distinct terms.
	NumTerms() int
	// Terms yields each distinct term with its posting count, in any
	// order.
	Terms(yield func(term string, postings int))
	// AppendPostings appends the term's part-local ascending ids to dst.
	AppendPostings(dst []TweetID, term string) []TweetID
}

// NumTerms returns the number of distinct indexed terms.
func (c *Corpus) NumTerms() int { return len(c.termIndex) }

// Terms calls yield with every indexed term and its posting count.
func (c *Corpus) Terms(yield func(term string, postings int)) {
	for term, ids := range c.termIndex {
		yield(term, len(ids))
	}
}

// AppendPostings appends the term's posting list to dst.
func (c *Corpus) AppendPostings(dst []TweetID, term string) []TweetID {
	return append(dst, c.termIndex[term]...)
}

// Merge builds the corpus holding the parts' posts back to back without
// re-indexing them: tweet ids are reassigned to the position in the
// concatenation, and each term's posting list is the concatenation of
// the parts' lists, each rebased by the number of tweets before its
// part. List sizes are counted first, so every posting of the result
// lives in one array allocated once and carved into cap-limited lists.
// It trusts each part's index the way FromIndex does and guarantees the
// result equals FromTweets over the concatenated tweets in every
// observable: tweets, ids, posting lists, counters.
func Merge(w *world.World, parts []Part) *Corpus {
	n, terms := 0, 0
	for _, p := range parts {
		n += p.NumTweets()
		terms = max(terms, p.NumTerms())
	}
	tweets := make([]Tweet, 0, n)
	counts := make(map[string]int, terms)
	total := 0
	count := func(term string, postings int) {
		counts[term] += postings
		total += postings
	}
	for _, p := range parts {
		tweets = append(tweets, p.Tweets()...)
		p.Terms(count)
	}
	for i := range tweets {
		tweets[i].ID = TweetID(i)
	}

	arena := make([]TweetID, total)
	index := make(map[string][]TweetID, len(counts))
	for term, k := range counts {
		index[term] = arena[:0:k]
		arena = arena[k:]
	}
	var part Part
	var before TweetID // tweets in the parts ahead of part
	splice := func(term string, _ int) {
		list := index[term]
		at := len(list)
		list = part.AppendPostings(list, term)
		for j := at; j < len(list); j++ {
			list[j] += before
		}
		index[term] = list
	}
	for _, part = range parts {
		part.Terms(splice)
		before += TweetID(part.NumTweets())
	}
	return FromIndex(w, tweets, index)
}

// StreamConfig tunes a PostStream.
type StreamConfig struct {
	Seed uint64
	// Gen supplies the per-kind behaviour rates (off-topic chance,
	// second keywords, retweet boost); the per-user volume means are
	// reused as author-selection weights.
	Gen GenConfig
	// MentionRate is the chance an expert's turn emits a fan post
	// mentioning the expert instead of the expert's own post, feeding
	// the mention-impact feature of live candidates.
	MentionRate float64
}

// DefaultStreamConfig returns stream defaults matching the corpus
// generator's behaviour rates.
func DefaultStreamConfig(seed uint64) StreamConfig {
	return StreamConfig{Seed: seed, Gen: DefaultGenConfig(), MentionRate: 0.15}
}

// PostStream is an endless deterministic generator of live posts drawn
// from the same world model as Generate: experts post topical keywords
// by TweetRate, casuals post chatter, spammers stuff trending keywords,
// and fans occasionally mention productive experts. It is not safe for
// concurrent use — give each ingester goroutine its own stream (vary
// the seed).
type PostStream struct {
	w          *world.World
	cfg        StreamConfig
	rng        *xrand.RNG
	authors    *xrand.Weighted
	kwSamplers []*xrand.Weighted
	spamTopics *xrand.Weighted
	casuals    []world.UserID
}

// NewPostStream builds a stream over w, deterministic in cfg.Seed.
func NewPostStream(w *world.World, cfg StreamConfig) *PostStream {
	rng := xrand.New(cfg.Seed)
	s := &PostStream{w: w, cfg: cfg, rng: rng}

	// Author selection is weighted by each user's mean posting volume,
	// so the live mix matches the static corpus's authorship skew.
	weights := make([]float64, len(w.Users))
	for i := range w.Users {
		u := &w.Users[i]
		switch u.Kind {
		case world.ExpertUser, world.NewsUser:
			weights[i] = cfg.Gen.TweetsPerExpert * (0.3 + u.Influence)
		case world.CasualUser:
			weights[i] = cfg.Gen.TweetsPerCasual
			s.casuals = append(s.casuals, u.ID)
		case world.SpamUser:
			weights[i] = cfg.Gen.TweetsPerSpammer
		}
		weights[i] += 1e-9
	}
	s.authors = xrand.NewWeighted(rng.Split(), weights)

	s.kwSamplers = make([]*xrand.Weighted, len(w.Topics))
	for i := range w.Topics {
		kws := w.Topics[i].Keywords
		kwWeights := make([]float64, len(kws))
		for j := range kws {
			kwWeights[j] = kws[j].TweetRate + 1e-6
		}
		s.kwSamplers[i] = xrand.NewWeighted(rng.Split(), kwWeights)
	}

	spamWeights := make([]float64, len(w.Topics))
	for i := range w.Topics {
		spamWeights[i] = w.Topics[i].TweetPop*w.Topics[i].TweetActivity + 1e-9
	}
	s.spamTopics = xrand.NewWeighted(rng.Split(), spamWeights)
	return s
}

// Next returns the next post of the stream.
func (s *PostStream) Next() Post {
	u := &s.w.Users[s.authors.Draw()]
	switch u.Kind {
	case world.ExpertUser, world.NewsUser:
		if s.rng.Bool(s.cfg.Gen.OffTopicRate) || len(u.Topics) == 0 {
			return s.chatter(u.ID)
		}
		topic := u.Topics[s.rng.Intn(len(u.Topics))]
		if !s.rng.Bool(s.w.Topic(topic).TweetActivity) {
			return s.chatter(u.ID)
		}
		if s.rng.Bool(s.cfg.MentionRate*u.Influence*2) && len(s.casuals) > 0 {
			return s.fanMention(u.ID, topic)
		}
		return s.topical(u.ID, topic)
	case world.SpamUser:
		topic := world.TopicID(s.spamTopics.Draw())
		kw := s.w.Topic(topic).Keywords[0].Text
		return Post{
			Author: u.ID,
			Text:   "free prizes " + kw + " click here " + fillerWords[s.rng.Intn(len(fillerWords))],
			Topic:  -1,
		}
	default:
		return s.chatter(u.ID)
	}
}

// topical emits one on-topic post mirroring the static generator's
// keyword usage: one TweetRate-weighted keyword, occasionally two.
func (s *PostStream) topical(author world.UserID, topic world.TopicID) Post {
	t := s.w.Topic(topic)
	kw := t.Keywords[s.kwSamplers[topic].Draw()].Text
	text := fillerWords[s.rng.Intn(len(fillerWords))] + " " + kw
	if s.rng.Bool(s.cfg.Gen.SecondKeywordRate) {
		if second := t.Keywords[s.kwSamplers[topic].Draw()].Text; second != kw {
			text += " " + second
		}
	}
	text += " " + fillerWords[s.rng.Intn(len(fillerWords))]
	return Post{
		Author:       author,
		Text:         text,
		RetweetCount: s.rng.Poisson(s.cfg.Gen.RetweetBoost * s.w.User(author).Influence * 2),
		Topic:        topic,
	}
}

// fanMention emits a casual user's post that @-mentions the expert with
// a topical keyword.
func (s *PostStream) fanMention(expert world.UserID, topic world.TopicID) Post {
	fan := s.casuals[s.rng.Intn(len(s.casuals))]
	kw := s.w.Topic(topic).Keywords[s.kwSamplers[topic].Draw()].Text
	return Post{
		Author: fan,
		Text: "@" + s.w.User(expert).ScreenName + " great takes on " + kw +
			" " + fillerWords[s.rng.Intn(len(fillerWords))],
		Mentions:     []world.UserID{expert},
		RetweetCount: s.rng.Poisson(0.2),
		Topic:        topic,
	}
}

// chatter emits a generic off-topic post.
func (s *PostStream) chatter(author world.UserID) Post {
	text := ""
	n := 2 + s.rng.Intn(4)
	for i := 0; i < n; i++ {
		if i > 0 {
			text += " "
		}
		text += fillerWords[s.rng.Intn(len(fillerWords))]
	}
	var mentions []world.UserID
	if s.rng.Bool(0.08) {
		other := world.UserID(s.rng.Intn(len(s.w.Users)))
		if other != author {
			text += " @" + s.w.User(other).ScreenName
			mentions = append(mentions, other)
		}
	}
	return Post{Author: author, Text: text, Mentions: mentions,
		RetweetCount: s.rng.Poisson(0.05), Topic: -1}
}
