// Package diskseg is the disk tier of the streaming index: a compact
// on-disk format for sealed (immutable) segments, written at spill or
// compaction time, served through a read-only memory map. The read
// path is MatchAppend-shaped — the same contract as
// microblog.Corpus.MatchAppend — so a cold segment plugs into the live
// snapshot's per-segment matching loop unchanged: posting blocks are
// delta-varint decoded straight off the map into scratch buffers and
// fed to the existing galloping microblog.IntersectInto; per-user
// feature denominators and the per-tweet ranking features (author,
// retweets, hashtag bit, mentions) are fixed-width rows read in place
// with no decode at all, so candidate extraction never decodes a tweet
// record and costs nothing per matched post beyond the loads. A small
// LRU of hot decoded blocks keeps frequently queried terms at in-heap
// latency while the long tail of the corpus costs only page cache; it
// holds posting blocks, and tweet blocks only while something pages
// the log through Tweet (resharding handoff, OpTweets).
//
// Lifecycle. Segments are refcounted: the opener holds one reference,
// every published ingest snapshot that includes the segment takes
// another (Retain), and the map is torn down — and the file optionally
// removed — only when the last reference is released. That is the
// pin-against-unmap-under-reader rule: a query running against an old
// snapshot keeps its segments mapped no matter how many compactions
// have since rewritten the layout. See ARCHITECTURE.md, storage tier.
package diskseg

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/textutil"
	"repro/internal/world"
)

// Options tunes an opened segment.
type Options struct {
	// IO overrides the file/mmap layer; nil means the real OS. The
	// chaos harness injects open failures, truncation and corruption
	// through this seam.
	IO IO
	// BlockCache caps the hot decoded blocks (posting blocks, plus
	// tweet blocks under log paging) this segment keeps in heap; it is
	// also the number of slots a full cache recycles, coldest first,
	// instead of allocating per miss. Zero means 256; negative disables
	// caching, so every access decodes off the map — the configuration
	// the cold-path benchmarks measure.
	BlockCache int
	// Obs, when non-nil, registers the disk tier's metrics: block-cache
	// traffic (disk_block_cache_hits / disk_block_cache_misses) and the
	// per-miss decode latency histogram (disk_read_ns). Nil keeps the
	// read path free of clock reads.
	Obs *obs.Registry
}

// termMeta is one dictionary entry: the posting count and the block
// directory, decoded into heap at open time (the dictionary is tiny
// next to the postings it describes).
type termMeta struct {
	count  int
	blocks []blockRef
}

// blockRef locates one posting block in the map.
type blockRef struct {
	off  int // absolute offset into the mapped file
	blen int // encoded byte length
	n    int // ids in the block
}

// span locates one tweet block in the map.
type span struct{ off, blen int }

// Segment is one opened on-disk sealed segment. All read methods are
// safe for concurrent use; the segment never changes after Open.
type Segment struct {
	path string
	f    File
	data []byte

	numTweets int
	numUsers  int
	secs      [numSections]section
	statsOff  int
	featOff   int // feature rows
	poolOff   int // mention pool, right after the rows

	terms       map[string]*termMeta
	termList    []string // dictionary order; tweet records reference it
	tweetBlocks []span

	cache *blockCache

	refs   atomic.Int64
	remove atomic.Bool

	obsReadNS *obs.Histogram
}

// Open maps the segment at path and validates it: magic, version,
// section bounds, every section checksum, and the structure the read
// path decodes unchecked — the dictionary, every posting block, every
// tweet record and the feature column. A truncated, short-read
// or corrupted file fails here with a clean error (ErrTruncated,
// ErrChecksum, ErrCorrupt) — never later, and never with a wrong
// result. The returned segment holds one reference; Release it when
// the layout drops the segment.
func Open(path string, opts Options) (*Segment, error) {
	io := opts.IO
	if io == nil {
		io = OS{}
	}
	f, err := io.Open(path)
	if err != nil {
		return nil, fmt.Errorf("diskseg: open %s: %w", path, err)
	}
	s, err := open(path, f, opts)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskseg: open %s: %w", path, err)
	}
	return s, nil
}

func open(path string, f File, opts Options) (*Segment, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data, err := f.Mmap()
	if err != nil {
		return nil, err
	}
	if int64(len(data)) < size {
		return nil, fmt.Errorf("mapped %d of %d bytes: %w", len(data), size, ErrTruncated)
	}
	numTweets, numUsers, numTerms, numTweetBlocks, secs, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	s := &Segment{
		path:      path,
		f:         f,
		data:      data,
		numTweets: numTweets,
		numUsers:  numUsers,
		secs:      secs,
		statsOff:  secs[secStats].off,
		featOff:   secs[secFeatures].off,
		poolOff:   secs[secFeatures].off + featureRow*(numTweets+1),
	}
	if err := s.parseDict(secs[secDict], secs[secPostings], numTerms); err != nil {
		return nil, err
	}
	if err := s.parseTweetDir(secs[secTweetDir], secs[secTweets], numTweetBlocks); err != nil {
		return nil, err
	}
	if err := s.checkFeatures(secs[secFeatures]); err != nil {
		return nil, err
	}
	if err := s.checkTweets(); err != nil {
		return nil, err
	}
	capacity := opts.BlockCache
	if capacity == 0 {
		capacity = 256
	}
	if capacity > 0 {
		s.cache = newBlockCache(capacity, opts.Obs)
	}
	if opts.Obs != nil {
		s.obsReadNS = opts.Obs.Histogram("disk_read_ns")
	}
	s.refs.Store(1)
	return s, nil
}

// parseDict decodes the term dictionary and block directory into heap,
// and decodes every posting block once so the read path can decode
// them unchecked: terms strictly ascending, each block exactly its n
// ids in exactly its blen bytes, starting at its directory id, and each
// term's list strictly ascending below numTweets across its blocks.
func (s *Segment) parseDict(dict, postings section, numTerms int) error {
	buf := s.data[dict.off : dict.off+dict.n]
	if numTerms > dict.n/2 { // a term takes at least a length and a count byte
		return fmt.Errorf("%d terms in a %d-byte dictionary: %w", numTerms, dict.n, ErrCorrupt)
	}
	s.terms = make(map[string]*termMeta, numTerms)
	s.termList = make([]string, 0, numTerms)
	next := postings.off
	end := postings.off + postings.n
	var scratch []microblog.TweetID
	for i := 0; i < numTerms; i++ {
		tlen, err := takeUvarint(&buf)
		if err != nil {
			return fmt.Errorf("dict term %d: %w", i, err)
		}
		if tlen > uint64(len(buf)) {
			return fmt.Errorf("dict term %d: name %d bytes past section: %w", i, tlen, ErrCorrupt)
		}
		tok := string(buf[:tlen])
		buf = buf[tlen:]
		if i > 0 && tok <= s.termList[i-1] {
			return fmt.Errorf("dict term %d %q not after %q: %w", i, tok, s.termList[i-1], ErrCorrupt)
		}
		count, err := takeUvarint(&buf)
		if err != nil {
			return fmt.Errorf("dict term %q: %w", tok, err)
		}
		if count > uint64(s.numTweets) {
			return fmt.Errorf("dict term %q: %d postings for %d tweets: %w", tok, count, s.numTweets, ErrCorrupt)
		}
		m := &termMeta{count: int(count)}
		last := microblog.TweetID(-1)
		for got := 0; got < m.count; got += microblog.PostingsBlockLen {
			n := m.count - got
			if n > microblog.PostingsBlockLen {
				n = microblog.PostingsBlockLen
			}
			first, err := takeUvarint(&buf)
			if err != nil {
				return fmt.Errorf("dict term %q block dir: %w", tok, err)
			}
			blen, err := takeUvarint(&buf)
			if err != nil {
				return fmt.Errorf("dict term %q block dir: %w", tok, err)
			}
			if blen > uint64(end-next) {
				return fmt.Errorf("dict term %q: block %d bytes past postings section: %w", tok, blen, ErrCorrupt)
			}
			ids, rest, err := microblog.DecodePostingsBlock(scratch[:0], s.data[next:next+int(blen)], n)
			scratch = ids
			switch {
			case err != nil:
				return fmt.Errorf("dict term %q block %d: %v: %w", tok, len(m.blocks), err, ErrCorrupt)
			case len(rest) != 0:
				return fmt.Errorf("dict term %q block %d: %d trailing bytes: %w", tok, len(m.blocks), len(rest), ErrCorrupt)
			case uint64(ids[0]) != first:
				return fmt.Errorf("dict term %q block %d: starts at %d, directory says %d: %w", tok, len(m.blocks), ids[0], first, ErrCorrupt)
			case ids[0] <= last:
				return fmt.Errorf("dict term %q block %d: starts at %d after %d: %w", tok, len(m.blocks), ids[0], last, ErrCorrupt)
			case int(ids[n-1]) >= s.numTweets:
				return fmt.Errorf("dict term %q block %d: id %d of %d tweets: %w", tok, len(m.blocks), ids[n-1], s.numTweets, ErrCorrupt)
			}
			last = ids[n-1]
			m.blocks = append(m.blocks, blockRef{off: next, blen: int(blen), n: n})
			next += int(blen)
		}
		s.terms[tok] = m
		s.termList = append(s.termList, tok)
	}
	if next != end {
		return fmt.Errorf("postings section has %d trailing bytes: %w", end-next, ErrCorrupt)
	}
	return nil
}

// parseTweetDir turns the fixed-width block-length table into absolute
// spans.
func (s *Segment) parseTweetDir(dir, tweets section, numTweetBlocks int) error {
	s.tweetBlocks = make([]span, numTweetBlocks)
	next := tweets.off
	end := tweets.off + tweets.n
	for b := 0; b < numTweetBlocks; b++ {
		blen := int(binary.LittleEndian.Uint32(s.data[dir.off+4*b:]))
		if blen > end-next {
			return fmt.Errorf("tweet block %d: %d bytes past section: %w", b, blen, ErrCorrupt)
		}
		s.tweetBlocks[b] = span{off: next, blen: blen}
		next += blen
	}
	if next != end {
		return fmt.Errorf("tweets section has %d trailing bytes: %w", end-next, ErrCorrupt)
	}
	return nil
}

// checkFeatures validates the feature column once, so Features can
// read it unchecked: every author and mentioned user inside the user
// universe, each post's mentions a whole number of uvarints starting
// where the previous post's ended, the sentinel at the pool's end.
func (s *Segment) checkFeatures(sec section) error {
	rows := s.data[s.featOff:s.poolOff]
	pool := s.data[s.poolOff : sec.off+sec.n]
	at := int(binary.LittleEndian.Uint32(rows[8:]))
	if at != 0 {
		return fmt.Errorf("feature row 0: mentions at pool byte %d: %w", at, ErrCorrupt)
	}
	for i := 0; i < s.numTweets; i++ {
		row := rows[featureRow*i:]
		if a := binary.LittleEndian.Uint32(row) &^ hashtagBit; int(a) >= s.numUsers {
			return fmt.Errorf("feature row %d: author %d of %d users: %w", i, a, s.numUsers, ErrCorrupt)
		}
		next := int(binary.LittleEndian.Uint32(row[featureRow+8:]))
		if next < at || next > len(pool) {
			return fmt.Errorf("feature row %d: mentions at pool byte %d, after %d of %d: %w", i+1, next, at, len(pool), ErrCorrupt)
		}
		for at < next {
			m, n := binary.Uvarint(pool[at:next])
			if n <= 0 || m >= uint64(s.numUsers) {
				return fmt.Errorf("feature row %d: bad mention at pool byte %d: %w", i, at, ErrCorrupt)
			}
			at += n
		}
	}
	if at != len(pool) {
		return fmt.Errorf("mention pool has %d trailing bytes: %w", len(pool)-at, ErrCorrupt)
	}
	return nil
}

// checkTweets walks every tweet record once, decoding nothing, so
// decodeTweetBlock can read the blocks unchecked: per record a topic, a
// term count, that many term ids inside the dictionary and a text
// length inside the block, and no bytes after a block's last record.
func (s *Segment) checkTweets() error {
	for b, sp := range s.tweetBlocks {
		buf := s.data[sp.off : sp.off+sp.blen]
		n := min(s.numTweets-b*TweetBlockLen, TweetBlockLen)
		for i := 0; i < n; i++ {
			var err error
			if buf, err = skipRecord(buf, uint64(len(s.termList))); err != nil {
				return fmt.Errorf("tweet block %d record %d: %w", b, i, err)
			}
		}
		if len(buf) != 0 {
			return fmt.Errorf("tweet block %d has %d trailing bytes: %w", b, len(buf), ErrCorrupt)
		}
	}
	return nil
}

// skipRecord walks one tweet record off the front of buf and returns
// the bytes after it. It calls binary.Uvarint directly, which inlines
// where takeUvarint does not: this walk runs over every post of every
// segment opened.
func skipRecord(buf []byte, numTerms uint64) ([]byte, error) {
	_, n := binary.Uvarint(buf) // topic
	if n <= 0 {
		return nil, errMidVarint
	}
	buf = buf[n:]
	nt, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, errMidVarint
	}
	buf = buf[n:]
	for ; nt > 0; nt-- {
		t, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, errMidVarint
		}
		if t >= numTerms {
			return nil, fmt.Errorf("term %d of %d: %w", t, numTerms, ErrCorrupt)
		}
		buf = buf[n:]
	}
	tlen, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, errMidVarint
	}
	buf = buf[n:]
	if tlen > uint64(len(buf)) {
		return nil, fmt.Errorf("text %d bytes past block: %w", tlen, ErrCorrupt)
	}
	return buf[tlen:], nil
}

var errMidVarint = fmt.Errorf("section ends mid-varint: %w", ErrCorrupt)

// takeUvarint reads one uvarint off the front of *buf.
func takeUvarint(buf *[]byte) (uint64, error) {
	v, n := binary.Uvarint(*buf)
	if n <= 0 {
		return 0, errMidVarint
	}
	*buf = (*buf)[n:]
	return v, nil
}

// NumTweets returns the number of posts in the segment.
func (s *Segment) NumTweets() int { return s.numTweets }

// NumUsers returns the user-universe size the stat tables cover.
func (s *Segment) NumUsers() int { return s.numUsers }

// NumTweetsBy reads the user's authored-post count in place off the
// map — no decode, no allocation.
func (s *Segment) NumTweetsBy(u world.UserID) int {
	if int(u) >= s.numUsers || u < 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(s.data[s.statsOff+4*int(u):]))
}

// NumMentionsOf reads the user's mentions-received count in place.
func (s *Segment) NumMentionsOf(u world.UserID) int {
	if int(u) >= s.numUsers || u < 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(s.data[s.statsOff+4*(s.numUsers+int(u)):]))
}

// NumRetweetsOf reads the user's retweets-received count in place.
func (s *Segment) NumRetweetsOf(u world.UserID) int {
	if int(u) >= s.numUsers || u < 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(s.data[s.statsOff+4*(2*s.numUsers+int(u)):]))
}

// Features reads the ranking features of the post with the given
// segment-local id in place off the map: three loads and a varint walk
// over the post's mentions, decoded into *scratch (capacity reused,
// contents discarded, the grown buffer stored back) — no block decode,
// no cache traffic, no allocation once the scratch fits the widest
// post seen.
func (s *Segment) Features(id microblog.TweetID, hashtag bool, scratch *[]world.UserID) (author world.UserID, retweets int, hashtagged bool, mentions []world.UserID) {
	// Bounded by the rows' end, so an id past the segment panics here
	// (as an in-heap index would) instead of reading the pool as a row.
	row := s.data[s.featOff+featureRow*int(id) : s.poolOff]
	a := binary.LittleEndian.Uint32(row)
	lo := int(binary.LittleEndian.Uint32(row[8:]))
	hi := int(binary.LittleEndian.Uint32(row[featureRow+8:]))
	mentions = (*scratch)[:0]
	for pool := s.data[s.poolOff+lo : s.poolOff+hi]; len(pool) > 0; {
		m, n := binary.Uvarint(pool) // checkFeatures walked these bytes at Open
		mentions = append(mentions, world.UserID(m))
		pool = pool[n:]
	}
	*scratch = mentions
	return world.UserID(a &^ hashtagBit), int(binary.LittleEndian.Uint32(row[4:])),
		hashtag && a&hashtagBit != 0, mentions
}

// poolLen returns the byte length of the mention pool.
func (s *Segment) poolLen() int {
	return s.secs[secFeatures].off + s.secs[secFeatures].n - s.poolOff
}

// matchScratch holds the per-call decode buffers of MatchAppend.
type matchScratch struct {
	a, b  []microblog.TweetID
	metas []*termMeta
}

var matchPool = sync.Pool{New: func() any { return &matchScratch{} }}

// MatchAppend is the segment's zero-copy matcher, contract-identical
// to microblog.Corpus.MatchAppend: it writes the segment-local ids of
// all posts containing every token of the query into buf (capacity
// reused, contents discarded) and returns the filled buffer. Posting
// lists are materialized block by block — hot blocks from the LRU,
// cold ones decoded straight off the map — then intersected
// rarest-first through the galloping microblog.IntersectInto, exactly
// as the in-heap path does, which is what makes a spilled segment
// bit-identical to the corpus it was written from.
func (s *Segment) MatchAppend(query string, buf []microblog.TweetID) []microblog.TweetID {
	return s.MatchTokensAppend(textutil.Tokenize(query), buf)
}

// MatchTokensAppend is MatchAppend over an already tokenized query
// (see microblog.Corpus.MatchTokensAppend).
func (s *Segment) MatchTokensAppend(tokens []string, buf []microblog.TweetID) []microblog.TweetID {
	if len(tokens) == 0 {
		return buf[:0]
	}
	if len(tokens) == 1 {
		m := s.terms[tokens[0]]
		if m == nil {
			return buf[:0]
		}
		return s.termAppend(m, buf[:0])
	}
	sc := matchPool.Get().(*matchScratch)
	defer matchPool.Put(sc)
	metas := sc.metas[:0]
	for _, tok := range tokens {
		m := s.terms[tok]
		if m == nil {
			return buf[:0]
		}
		// Insert by ascending posting count: rarest first.
		i := len(metas)
		metas = append(metas, m)
		for ; i > 0 && metas[i-1].count > m.count; i-- {
			metas[i] = metas[i-1]
		}
		metas[i] = m
	}
	sc.metas = metas
	sc.a = s.termAppend(metas[0], sc.a[:0])
	sc.b = s.termAppend(metas[1], sc.b[:0])
	buf = microblog.IntersectInto(buf, sc.a, sc.b)
	for _, m := range metas[2:] {
		if len(buf) == 0 {
			return buf
		}
		sc.a = s.termAppend(m, sc.a[:0])
		buf = microblog.IntersectInto(buf, buf, sc.a)
	}
	return buf
}

// Postings appends the full decoded posting list of one token to buf —
// the single-term fast path and the test surface of the block decoder.
func (s *Segment) Postings(token string, buf []microblog.TweetID) []microblog.TweetID {
	m := s.terms[token]
	if m == nil {
		return buf[:0]
	}
	return s.termAppend(m, buf[:0])
}

// termAppend materializes one term's posting list, block by block.
func (s *Segment) termAppend(m *termMeta, buf []microblog.TweetID) []microblog.TweetID {
	for i := range m.blocks {
		buf = s.appendBlock(buf, &m.blocks[i])
	}
	return buf
}

// appendBlock appends one posting block to dst: copied out of the hot
// cache on a hit; on a miss decoded off the map straight into dst, then
// copied into the cache. No cache-owned slice leaves the cache's lock.
func (s *Segment) appendBlock(dst []microblog.TweetID, ref *blockRef) []microblog.TweetID {
	if s.cache != nil {
		if out, ok := s.cache.appendIDs(dst, ref.off); ok {
			return out
		}
	}
	var start time.Time
	if s.obsReadNS != nil {
		start = time.Now()
	}
	n := len(dst)
	dst = s.decodePostings(dst, ref)
	if s.obsReadNS != nil {
		s.obsReadNS.Observe(time.Since(start).Nanoseconds())
	}
	if s.cache != nil {
		s.cache.put(ref.off, dst[n:], nil)
	}
	return dst
}

// decodePostings appends one posting block to dst, decoded off the map.
func (s *Segment) decodePostings(dst []microblog.TweetID, ref *blockRef) []microblog.TweetID {
	dst, _, err := microblog.DecodePostingsBlock(dst, s.data[ref.off:ref.off+ref.blen], ref.n)
	if err != nil {
		// The section checksum verified at Open covers these bytes; a
		// decode failure here means memory corruption, not input.
		panic(fmt.Sprintf("diskseg: checksummed posting block undecodable: %v", err))
	}
	return dst
}

// NumTerms returns the dictionary size. With Terms and AppendPostings
// (and Tweets) it makes the segment a microblog.Part, a compaction
// input merged without re-indexing.
func (s *Segment) NumTerms() int { return len(s.termList) }

// Terms calls yield with every dictionary term and its posting count,
// in dictionary order, from the directory decoded at Open — no block is
// touched.
func (s *Segment) Terms(yield func(term string, postings int)) {
	for _, term := range s.termList {
		yield(term, s.terms[term].count)
	}
}

// AppendPostings appends the term's whole posting list to dst, decoded
// straight off the map. Like Tweets it bypasses the hot cache: a
// background merge reads every block exactly once and must not evict
// the query path's working set.
func (s *Segment) AppendPostings(dst []microblog.TweetID, term string) []microblog.TweetID {
	m := s.terms[term]
	if m == nil {
		return dst
	}
	for i := range m.blocks {
		dst = s.decodePostings(dst, &m.blocks[i])
	}
	return dst
}

// Tweet returns the whole post with the given segment-local id — the
// log-paging read (resharding handoff, OpTweets); ranking reads
// Features instead. The tweet is decoded as part of its block, hot
// blocks come from the LRU, and the returned pointer stays valid as
// long as the caller holds it (eviction only drops the cache's
// reference). Terms share the dictionary's strings; nothing is
// re-tokenized.
func (s *Segment) Tweet(id microblog.TweetID) *microblog.Tweet {
	b := int(id) / TweetBlockLen
	tws := s.tweetBlock(b)
	return &tws[int(id)%TweetBlockLen]
}

// tweetBlock returns one decoded tweet block via the hot cache.
func (s *Segment) tweetBlock(b int) []microblog.Tweet {
	sp := &s.tweetBlocks[b]
	if s.cache != nil {
		// Tweet blocks are keyed by their span offset; posting and
		// tweet offsets never collide because the sections are disjoint.
		if tws := s.cache.tweets(sp.off); tws != nil {
			return tws
		}
	}
	tws := s.decodeTweetBlock(b)
	if s.cache != nil {
		s.cache.put(sp.off, nil, tws)
	}
	return tws
}

// decodeTweetBlock decodes the b'th tweet block off the map.
func (s *Segment) decodeTweetBlock(b int) []microblog.Tweet {
	var start time.Time
	if s.obsReadNS != nil {
		start = time.Now()
	}
	sp := s.tweetBlocks[b]
	buf := s.data[sp.off : sp.off+sp.blen]
	lo := b * TweetBlockLen
	n := s.numTweets - lo
	if n > TweetBlockLen {
		n = TweetBlockLen
	}
	tws := make([]microblog.Tweet, n)
	for i := 0; i < n; i++ {
		tw := &tws[i]
		tw.ID = microblog.TweetID(lo + i)
		var mentions []world.UserID // fresh per tweet: the record owns it
		tw.Author, tw.RetweetCount, _, tw.Mentions = s.Features(tw.ID, false, &mentions)
		tw.Topic = world.TopicID(blockUvarint(&buf)) - 1
		if nt := int(blockUvarint(&buf)); nt > 0 {
			tw.Terms = make([]string, nt)
			for j := range tw.Terms {
				tw.Terms[j] = s.termList[blockUvarint(&buf)]
			}
		}
		tlen := int(blockUvarint(&buf))
		tw.Text = string(buf[:tlen])
		buf = buf[tlen:]
	}
	if s.obsReadNS != nil {
		s.obsReadNS.Observe(time.Since(start).Nanoseconds())
	}
	return tws
}

// blockUvarint reads one uvarint from a checksummed tweet block.
func blockUvarint(buf *[]byte) uint64 {
	v, n := binary.Uvarint(*buf)
	if n <= 0 {
		panic("diskseg: checksummed tweet block undecodable")
	}
	*buf = (*buf)[n:]
	return v
}

// Tweets materializes every post of the segment in id order — the
// in-heap compaction path (microblog.Merge), taken by a run that is not
// wholly on disk; an all-disk run merges encoded (WriteMerged). It
// decodes sequentially and bypasses the hot cache so a background
// rewrite cannot evict the query path's working set.
func (s *Segment) Tweets() []microblog.Tweet {
	all := make([]microblog.Tweet, 0, s.numTweets)
	for b := range s.tweetBlocks {
		all = append(all, s.decodeTweetBlock(b)...)
	}
	return all
}

// Refs returns the current reference count (tests pin the lifecycle
// with it).
func (s *Segment) Refs() int64 { return s.refs.Load() }

// Retain takes one more reference — every published snapshot that
// includes the segment holds one, which is what pins the map against
// an unmap-under-reader when compaction drops the segment from the
// live layout.
func (s *Segment) Retain() {
	if s.refs.Add(1) <= 1 {
		panic("diskseg: Retain after final Release")
	}
}

// RemoveOnRelease arms deletion of the backing file when the last
// reference goes away — the spill directory's garbage collection.
func (s *Segment) RemoveOnRelease() { s.remove.Store(true) }

// Release drops one reference; the last release unmaps the file,
// closes it, and removes it when RemoveOnRelease was armed.
func (s *Segment) Release() {
	n := s.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("diskseg: Release without matching Retain")
	}
	s.f.Close()
	if s.remove.Load() {
		os.Remove(s.path)
	}
}

// cacheEntry is one slot of the hot-block cache, holding either a
// posting block (ids) or a tweet block (tws). Posting ids are copied in
// and out under the cache's lock, so a slot's ids buffer is reused when
// the slot is recycled for another block. A tweet block is handed out
// by reference — Tweet's pointers outlive eviction — so recycling only
// drops a slot's tws, never writes through it.
type cacheEntry struct {
	key int
	ids []microblog.TweetID
	tws []microblog.Tweet
}

// blockCache is a small mutex-guarded LRU over decoded blocks, shared
// by posting and tweet blocks and keyed by the block's file offset
// (unique across both, since sections are disjoint). Once full it
// allocates nothing: a new block takes over the coldest slot.
type blockCache struct {
	mu  sync.Mutex
	cap int
	m   map[int]*list.Element
	ll  *list.List // front = most recently used

	hits, misses *obs.Counter
}

func newBlockCache(capacity int, reg *obs.Registry) *blockCache {
	c := &blockCache{cap: capacity, m: make(map[int]*list.Element, capacity), ll: list.New()}
	if reg != nil {
		c.hits = reg.Counter("disk_block_cache_hits")
		c.misses = reg.Counter("disk_block_cache_misses")
	}
	return c
}

// appendIDs appends the cached posting block under key to dst,
// promoting it; ok is false on a miss.
func (c *blockCache) appendIDs(dst []microblog.TweetID, key int) ([]microblog.TweetID, bool) {
	c.mu.Lock()
	el, ok := c.m[key]
	if ok {
		c.ll.MoveToFront(el)
		dst = append(dst, el.Value.(*cacheEntry).ids...)
	}
	c.mu.Unlock()
	c.count(ok)
	return dst, ok
}

// tweets returns the cached tweet block under key, promoting it, or nil.
func (c *blockCache) tweets(key int) []microblog.Tweet {
	var tws []microblog.Tweet
	c.mu.Lock()
	el, ok := c.m[key]
	if ok {
		c.ll.MoveToFront(el)
		tws = el.Value.(*cacheEntry).tws
	}
	c.mu.Unlock()
	c.count(ok)
	return tws
}

func (c *blockCache) count(hit bool) {
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
}

// put caches a freshly decoded block under key: posting ids by copy,
// a tweet block by reference. Below cap it adds a slot; at cap it
// recycles the coldest one — list element, entry and ids buffer.
func (c *blockCache) put(key int, ids []microblog.TweetID, tws []microblog.Tweet) {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		// A concurrent decode of the same block won; keep the winner.
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	var el *list.Element
	if c.ll.Len() < c.cap {
		el = c.ll.PushFront(&cacheEntry{})
	} else {
		el = c.ll.Back()
		delete(c.m, el.Value.(*cacheEntry).key)
		c.ll.MoveToFront(el)
	}
	e := el.Value.(*cacheEntry)
	e.key = key
	e.ids = append(e.ids[:0], ids...)
	e.tws = tws
	c.m[key] = el
	c.mu.Unlock()
}
