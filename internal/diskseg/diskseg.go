// Package diskseg is the sealed-segment representation of the
// streaming index: a compact format every sealed (immutable) segment is
// encoded in at seal time (Encode) and re-encoded in at compaction time
// (EncodeMerged), served from an in-memory image (Load) or, once
// spilled to a file, through a read-only memory map (Open). The read
// path is MatchAppend-shaped — the same contract as
// microblog.Corpus.MatchAppend — so a segment plugs into the live
// snapshot's per-segment matching loop unchanged: posting blocks are
// delta-varint decoded straight off the image into scratch buffers and
// fed to the existing galloping microblog.IntersectInto; per-user
// feature denominators and the per-tweet ranking features (author,
// retweets, hashtag bit, mentions) are fixed-width rows read in place
// with no decode at all, so candidate extraction never decodes a tweet
// record and costs nothing per matched post beyond the loads. A small
// LRU of hot decoded blocks keeps a mapped segment's frequently queried
// terms off the decoder while the long tail of the corpus costs only
// page cache; it holds posting blocks only. Paging the log (OpTweets)
// reads the tweet records through Scan, one sequential decode past the
// cache.
//
// Lifecycle. Segments are refcounted: the opener holds one reference,
// every published ingest snapshot that includes a mapped segment takes
// another (Retain), and the map is torn down — and the file optionally
// removed — only when the last reference is released. An in-memory
// segment is plain garbage once unreachable. That is the
// pin-against-unmap-under-reader rule: a query running against an old
// snapshot keeps its segments mapped no matter how many compactions
// have since rewritten the layout. See ARCHITECTURE.md, storage tier.
package diskseg

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"os"
	"slices"
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
	// BlockCache caps the hot decoded posting blocks this segment keeps
	// in heap; it is also the number of slots a full cache recycles,
	// coldest first, instead of allocating per miss. Zero means 256;
	// negative disables caching, so every access decodes off the map —
	// the configuration the cold-path benchmarks measure.
	BlockCache int
	// Obs, when non-nil, registers the disk tier's metrics: block-cache
	// traffic (disk_block_cache_hits / disk_block_cache_misses) and the
	// per-miss decode latency histogram (disk_read_ns). Nil keeps the
	// read path free of clock reads.
	Obs *obs.Registry
}

// termMeta is one dictionary entry: the posting count and the term's
// run [lo, hi) of the segment's block directory, decoded into heap at
// open time (the dictionary is tiny next to the postings it describes).
type termMeta struct {
	count, lo, hi int32
}

// blockRef locates one posting block in the image.
type blockRef struct {
	off  int   // absolute offset into the image
	blen int32 // encoded byte length
	n    int32 // ids in the block
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

	// The dictionary in order, and an open-addressing hash index over
	// it: a slot holds a term's position, -1 when empty (see lookup).
	termList    []string
	metas       []termMeta
	blocks      []blockRef
	index       []int32
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

// Load opens an encoded image held in memory (Encode, EncodeMerged) —
// a sealed segment that is not spilled. It validates exactly as Open
// does, through the same parse; opts.IO is not used. The segment reads
// img in place, so img must not be written again.
func Load(img []byte, opts Options) (*Segment, error) {
	s, err := open("", memFile(img), opts)
	if err != nil {
		return nil, fmt.Errorf("diskseg: load: %w", err)
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
//
// It allocates O(1) times, not per term: the section is one string the
// terms are substrings of; entries, blocks and index are one array
// each (a term has at most one short block, so postings.n bounds the
// rest).
func (s *Segment) parseDict(dict, postings section, numTerms int) error {
	buf := s.data[dict.off : dict.off+dict.n]
	if numTerms > dict.n/2 { // a term takes at least a length and a count byte
		return fmt.Errorf("%d terms in a %d-byte dictionary: %w", numTerms, dict.n, ErrCorrupt)
	}
	names := string(buf)
	s.termList = make([]string, 0, numTerms)
	s.metas = make([]termMeta, numTerms)
	s.blocks = make([]blockRef, 0, numTerms+postings.n/microblog.PostingsBlockLen)
	size := 2
	for size < 2*numTerms {
		size *= 2
	}
	s.index = make([]int32, size)
	for k := range s.index {
		s.index[k] = -1
	}
	next := postings.off
	end := postings.off + postings.n
	scratch := make([]microblog.TweetID, 0, microblog.PostingsBlockLen)
	for i := 0; i < numTerms; i++ {
		tlen, err := takeUvarint(&buf)
		if err != nil {
			return fmt.Errorf("dict term %d: %w", i, err)
		}
		if tlen > uint64(len(buf)) {
			return fmt.Errorf("dict term %d: name %d bytes past section: %w", i, tlen, ErrCorrupt)
		}
		at := dict.n - len(buf)
		tok := names[at : at+int(tlen)]
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
		m := &s.metas[i]
		m.count, m.lo = int32(count), int32(len(s.blocks))
		last := microblog.TweetID(-1)
		for got := 0; got < int(m.count); got += microblog.PostingsBlockLen {
			n := int(m.count) - got
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
			b := len(s.blocks) - int(m.lo)
			switch {
			case err != nil:
				return fmt.Errorf("dict term %q block %d: %v: %w", tok, b, err, ErrCorrupt)
			case len(rest) != 0:
				return fmt.Errorf("dict term %q block %d: %d trailing bytes: %w", tok, b, len(rest), ErrCorrupt)
			case uint64(ids[0]) != first:
				return fmt.Errorf("dict term %q block %d: starts at %d, directory says %d: %w", tok, b, ids[0], first, ErrCorrupt)
			case ids[0] <= last:
				return fmt.Errorf("dict term %q block %d: starts at %d after %d: %w", tok, b, ids[0], last, ErrCorrupt)
			case int(ids[n-1]) >= s.numTweets:
				return fmt.Errorf("dict term %q block %d: id %d of %d tweets: %w", tok, b, ids[n-1], s.numTweets, ErrCorrupt)
			}
			last = ids[n-1]
			s.blocks = append(s.blocks, blockRef{off: next, blen: int32(blen), n: int32(n)})
			next += int(blen)
		}
		m.hi = int32(len(s.blocks))
		mask := uint64(len(s.index) - 1)
		k := maphash.String(hashSeed, tok) & mask
		for s.index[k] >= 0 {
			k = (k + 1) & mask
		}
		s.index[k] = int32(i)
		s.termList = append(s.termList, tok)
	}
	if next != end {
		return fmt.Errorf("postings section has %d trailing bytes: %w", end-next, ErrCorrupt)
	}
	return nil
}

// hashSeed seeds every segment's term index.
var hashSeed = maphash.MakeSeed()

// lookup returns the dictionary entry of tok, nil when the segment
// does not hold it: a linear probe of the hash index from tok's hash.
func (s *Segment) lookup(tok string) *termMeta {
	mask := uint64(len(s.index) - 1)
	for k := maphash.String(hashSeed, tok) & mask; ; k = (k + 1) & mask {
		switch j := s.index[k]; {
		case j < 0:
			return nil
		case s.termList[j] == tok:
			return &s.metas[j]
		}
	}
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
// Scan and a merge can read the blocks unchecked: per record a topic
// and a text length inside the block, and no bytes after a block's
// last record. It calls binary.Uvarint directly, which inlines where
// takeUvarint does not: this walk runs over every post opened.
func (s *Segment) checkTweets() error {
	for b, sp := range s.tweetBlocks {
		buf := s.data[sp.off : sp.off+sp.blen]
		for i := min(s.numTweets-b*TweetBlockLen, TweetBlockLen); i > 0; i-- {
			_, n := binary.Uvarint(buf) // topic
			if n <= 0 {
				return fmt.Errorf("tweet block %d: %w", b, errMidVarint)
			}
			tlen, m := binary.Uvarint(buf[n:])
			if m <= 0 || tlen > uint64(len(buf)-n-m) {
				return fmt.Errorf("tweet block %d: text past the block: %w", b, ErrCorrupt)
			}
			buf = buf[n+m+int(tlen):]
		}
		if len(buf) != 0 {
			return fmt.Errorf("tweet block %d has %d trailing bytes: %w", b, len(buf), ErrCorrupt)
		}
	}
	return nil
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
	return int(binary.LittleEndian.Uint64(s.data[s.statsOff+8*(s.numUsers+int(u)):]))
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
// as the in-heap corpus does, which is what makes a segment
// bit-identical to the corpus it was encoded from.
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
		m := s.lookup(tokens[0])
		if m == nil {
			return buf[:0]
		}
		return s.termAppend(m, buf[:0])
	}
	sc := matchPool.Get().(*matchScratch)
	defer matchPool.Put(sc)
	metas := sc.metas[:0]
	for _, tok := range tokens {
		m := s.lookup(tok)
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
	sc.b = s.termAppendNear(metas[1], sc.a, sc.b[:0])
	buf = microblog.IntersectInto(buf, sc.a, sc.b)
	for _, m := range metas[2:] {
		if len(buf) == 0 {
			return buf
		}
		sc.a = s.termAppendNear(m, buf, sc.a[:0])
		buf = microblog.IntersectInto(buf, buf, sc.a)
	}
	return buf
}

// termAppendNear materializes only the blocks of one term's posting
// list that can hold one of the ascending ids in near: intersected with
// near, the blocks it skips could add nothing. A block's first id is
// its first varint, so the skip decodes nothing else.
func (s *Segment) termAppendNear(m *termMeta, near, buf []microblog.TweetID) []microblog.TweetID {
	j := 0
	for b := m.lo; b < m.hi && j < len(near); b++ {
		first, _ := binary.Uvarint(s.data[s.blocks[b].off:])
		for j < len(near) && uint64(near[j]) < first {
			j++
		}
		if j == len(near) {
			break
		}
		if b+1 < m.hi {
			if next, _ := binary.Uvarint(s.data[s.blocks[b+1].off:]); uint64(near[j]) >= next {
				continue
			}
		}
		buf = s.appendBlock(buf, &s.blocks[b])
	}
	return buf
}

// Postings appends the full decoded posting list of one token to buf —
// the single-term fast path and the test surface of the block decoder.
func (s *Segment) Postings(token string, buf []microblog.TweetID) []microblog.TweetID {
	m := s.lookup(token)
	if m == nil {
		return buf[:0]
	}
	return s.termAppend(m, buf[:0])
}

// termAppend materializes one term's posting list, block by block.
func (s *Segment) termAppend(m *termMeta, buf []microblog.TweetID) []microblog.TweetID {
	for i := m.lo; i < m.hi; i++ {
		buf = s.appendBlock(buf, &s.blocks[i])
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
		s.cache.put(ref.off, dst[n:])
	}
	return dst
}

// decodePostings appends one posting block to dst, decoded off the map.
// Open decoded every block with microblog.DecodePostingsBlock's checks,
// so this decode skips them: it only sums the deltas.
func (s *Segment) decodePostings(dst []microblog.TweetID, ref *blockRef) []microblog.TweetID {
	data := s.data[ref.off : ref.off+int(ref.blen)]
	at := len(dst)
	dst = slices.Grow(dst, int(ref.n))[:at+int(ref.n)]
	out := dst[at:]
	v, k := binary.Uvarint(data) // the first id travels absolute
	id := microblog.TweetID(v)
	out[0] = id
	for i := 1; i < len(out); i++ {
		data = data[k:]
		if d := data[0]; d < 0x80 { // most deltas fit one byte
			id += microblog.TweetID(d)
			k = 1
		} else {
			v, k = binary.Uvarint(data)
			id += microblog.TweetID(v)
		}
		out[i] = id
	}
	return dst
}

// Scan calls fn with every post of segment-local ids [lo, hi), in id
// order — the log-paging read (OpTweets); ranking
// reads Features instead. It decodes each tweet block once,
// sequentially, straight off the image and past the hot cache, so
// paging the whole log neither evicts the query path's posting blocks
// nor leaves decoded posts in heap. The *Tweet is scratch, overwritten
// by the next post; its Text, Terms and Mentions are freshly owned and
// may be kept. Terms are textutil.Tokenize of the text, exactly what
// microblog.MakeTweet rendered when the post arrived (see the format's
// tweets section). The range is clipped to the segment.
func (s *Segment) Scan(lo, hi int, fn func(*microblog.Tweet)) {
	lo, hi = max(lo, 0), min(hi, s.numTweets)
	var tw microblog.Tweet
	for id := lo; id < hi; {
		b := id / TweetBlockLen
		sp := s.tweetBlocks[b]
		buf := s.data[sp.off : sp.off+sp.blen]
		for i := b * TweetBlockLen; i < id; i++ {
			buf = buf[recordLen(buf):]
		}
		for end := min(hi, (b+1)*TweetBlockLen); id < end; id++ {
			tw.ID = microblog.TweetID(id)
			var mentions []world.UserID // fresh per post: the caller may keep it
			tw.Author, tw.RetweetCount, _, tw.Mentions = s.Features(tw.ID, false, &mentions)
			tw.Topic = world.TopicID(blockUvarint(&buf)) - 1
			tlen := int(blockUvarint(&buf))
			tw.Text = string(buf[:tlen])
			tw.Terms = textutil.Tokenize(tw.Text)
			buf = buf[tlen:]
			fn(&tw)
		}
	}
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

// OnDisk reports whether the segment is backed by a file (Open) rather
// than an in-memory image (Load).
func (s *Segment) OnDisk() bool { return s.path != "" }

// WriteFile stores the segment's image at path (see the package-level
// WriteFile) — a spill: Open the file to serve the segment from it.
func (s *Segment) WriteFile(path string) error { return WriteFile(path, s.data) }

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

// cacheSlot is one slot of the hot-block cache: which block it holds,
// how many ids, and its neighbours in recency order.
type cacheSlot struct {
	key        int
	n          int32
	prev, next int32
}

// blockCache is a small mutex-guarded LRU over decoded posting blocks,
// keyed by the block's offset in the image. Slots are linked by index
// in a circular list whose sentinel is slots[0] (next = most recent,
// prev = coldest); slot i's ids sit at stride PostingsBlockLen in one
// arena, which grows by doubling, so a fill costs O(log cap)
// allocations and a full cache none: a new block takes the coldest
// slot. Ids are copied in and out under the lock.
type blockCache struct {
	mu    sync.Mutex
	cap   int
	m     map[int]int32 // block offset → slot
	slots []cacheSlot
	ids   []microblog.TweetID

	hits, misses *obs.Counter
}

func newBlockCache(capacity int, reg *obs.Registry) *blockCache {
	c := &blockCache{cap: capacity, m: make(map[int]int32, capacity), slots: make([]cacheSlot, 1, capacity+1)}
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
	i, ok := c.m[key]
	if ok {
		c.toFront(i)
		at := (int(i) - 1) * microblog.PostingsBlockLen
		dst = append(dst, c.ids[at:at+int(c.slots[i].n)]...)
	}
	c.mu.Unlock()
	c.count(ok)
	return dst, ok
}

func (c *blockCache) count(hit bool) {
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
}

// put caches a copy of a freshly decoded posting block under key. Below
// cap it adds a slot; at cap it recycles the coldest one.
func (c *blockCache) put(key int, ids []microblog.TweetID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.m[key]; ok {
		// A concurrent decode of the same block won; keep the winner.
		c.toFront(i)
		return
	}
	i := int32(len(c.slots))
	if int(i) <= c.cap {
		c.slots = append(c.slots, cacheSlot{})
		c.ids = slices.Grow(c.ids, microblog.PostingsBlockLen)[:int(i)*microblog.PostingsBlockLen]
	} else {
		i = c.slots[0].prev
		delete(c.m, c.slots[i].key)
		c.unlink(i)
	}
	c.slots[i].key, c.slots[i].n = key, int32(len(ids))
	copy(c.ids[(int(i)-1)*microblog.PostingsBlockLen:], ids)
	c.pushFront(i)
	c.m[key] = i
}

// toFront makes slot i the most recently used.
func (c *blockCache) toFront(i int32) {
	if c.slots[0].next != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// unlink takes slot i out of the recency list.
func (c *blockCache) unlink(i int32) {
	s := &c.slots[i]
	c.slots[s.prev].next = s.next
	c.slots[s.next].prev = s.prev
}

// pushFront links slot i in as the most recently used.
func (c *blockCache) pushFront(i int32) {
	head := c.slots[0].next
	c.slots[i].prev, c.slots[i].next = 0, head
	c.slots[head].prev = i
	c.slots[0].next = i
}
