// Package diskseg is the sealed-segment representation of the
// streaming index: a compact format every sealed (immutable) segment is
// encoded in at seal time (EncodeIndexed; Encode for a whole corpus)
// and re-encoded in at compaction time (EncodeMerged), served from an
// in-memory image (Load) or, once spilled to a file, through a
// read-only memory map (Open). The read path is MatchTokensAppend —
// the same contract as microblog.TermIndex.MatchAppend — so a segment
// plugs into the live snapshot's per-segment matching loop unchanged:
// posting blocks are delta-varint decoded straight off the image into
// scratch buffers and fed to the existing galloping
// microblog.IntersectInto; per-user
// feature denominators and the per-tweet ranking features (author,
// retweets, hashtag bit, mentions) are fixed-width rows read in place
// with no decode at all, so candidate extraction never decodes a tweet
// record and costs nothing per matched post beyond the loads. There is
// one read path wherever the image lives: every posting block a query
// needs is decoded off the image into the caller's scratch, with no
// cache, no lock and no clock read — a mapped segment's hot pages are
// the OS page cache's job. Paging the log (OpTweets) reads the tweet
// records through Scan, one sequential decode.
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
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/microblog"
	"repro/internal/textutil"
	"repro/internal/world"
)

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

	refs   atomic.Int64
	remove atomic.Bool
}

// Open maps the segment at path and validates it: magic, version,
// section bounds, every section checksum, and the structure the read
// path decodes unchecked — the dictionary, every posting block, every
// tweet record and the feature column. A truncated, short-read
// or corrupted file fails here with a clean error (ErrTruncated,
// ErrChecksum, ErrCorrupt) — never later, and never with a wrong
// result. The returned segment holds one reference; Release it when
// the layout drops the segment. io overrides the file/mmap layer; nil
// means the real OS. The chaos harness injects open failures,
// truncation and corruption through this seam.
func Open(path string, io IO) (*Segment, error) {
	if io == nil {
		io = OS{}
	}
	f, err := io.Open(path)
	if err != nil {
		return nil, fmt.Errorf("diskseg: open %s: %w", path, err)
	}
	s, err := open(path, f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskseg: open %s: %w", path, err)
	}
	return s, nil
}

// Load opens an encoded image held in memory (Encode, EncodeMerged) —
// a sealed segment that is not spilled. It validates exactly as Open
// does, through the same parse, and reads the same way. The segment
// reads img in place, so img must not be written again.
func Load(img []byte) (*Segment, error) {
	s, err := open("", memFile(img))
	if err != nil {
		return nil, fmt.Errorf("diskseg: load: %w", err)
	}
	return s, nil
}

func open(path string, f File) (*Segment, error) {
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
// rest). An in-memory image is never written again (Load), so its
// names alias it; a mapped file's are copied, because Scan hands them
// out to keep and the map goes at the last Release.
func (s *Segment) parseDict(dict, postings section, numTerms int) error {
	buf := s.data[dict.off : dict.off+dict.n]
	if numTerms > dict.n/2 { // a term takes at least a length and a count byte
		return fmt.Errorf("%d terms in a %d-byte dictionary: %w", numTerms, dict.n, ErrCorrupt)
	}
	names := unsafe.String(unsafe.SliceData(buf), len(buf))
	if s.OnDisk() {
		names = string(buf)
	}
	s.termList = make([]string, 0, numTerms)
	s.metas = make([]termMeta, numTerms)
	s.blocks = make([]blockRef, 0, numTerms+postings.n/postingsBlockLen)
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
	scratch := make([]microblog.TweetID, 0, postingsBlockLen)
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
		for got := 0; got < int(m.count); got += postingsBlockLen {
			n := int(m.count) - got
			if n > postingsBlockLen {
				n = postingsBlockLen
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
			ids, rest, err := decodePostingsBlock(scratch[:0], s.data[next:next+int(blen)], n)
			scratch = ids
			b := len(s.blocks) - int(m.lo)
			switch {
			case err != nil:
				return fmt.Errorf("dict term %q block %d: %w", tok, b, err)
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
// and an h inside the block, then a raw text inside the block or at
// least one rank, all inside the block and each below the term count,
// and no bytes after a block's last record. It calls binary.Uvarint
// directly, which inlines where takeUvarint does not: this walk runs
// over every post opened.
func (s *Segment) checkTweets() error {
	numTerms := len(s.termList)
	for b, sp := range s.tweetBlocks {
		buf := s.data[sp.off : sp.off+sp.blen]
		for i := min(s.numTweets-b*TweetBlockLen, TweetBlockLen); i > 0; i-- {
			_, n := binary.Uvarint(buf) // topic
			if n <= 0 {
				return fmt.Errorf("tweet block %d: %w", b, errMidVarint)
			}
			h, m := binary.Uvarint(buf[n:])
			if m <= 0 {
				return fmt.Errorf("tweet block %d: %w", b, errMidVarint)
			}
			buf = buf[n+m:]
			switch {
			case h&1 == 1:
				if h>>1 > uint64(len(buf)) {
					return fmt.Errorf("tweet block %d: text past the block: %w", b, ErrCorrupt)
				}
			case h == 0:
				return fmt.Errorf("tweet block %d: a term-coded post with no terms: %w", b, ErrCorrupt)
			case h > uint64(len(buf)):
				return fmt.Errorf("tweet block %d: ranks past the block: %w", b, ErrCorrupt)
			default:
				top := maxRank(buf, int(h))
				if int(top) >= numTerms {
					return fmt.Errorf("tweet block %d: rank %d of %d terms: %w", b, top, numTerms, ErrCorrupt)
				}
			}
			buf = buf[bodyLen(h):]
		}
		if len(buf) != 0 {
			return fmt.Errorf("tweet block %d has %d trailing bytes: %w", b, len(buf), ErrCorrupt)
		}
	}
	return nil
}

// maxRank returns the largest of the n/2 ranks at the front of buf.
// It reads them four at a time, a 64-bit word with the bytes past the
// ranks shifted out, so a record costs a branch per four ranks, not per
// rank; only near the end of buf does it read them one by one.
func maxRank(buf []byte, n int) uint16 {
	var top uint16
	q := 0
	for ; q < n && q+8 <= len(buf); q += 8 {
		x := binary.LittleEndian.Uint64(buf[q:])
		if r := n - q; r < 8 {
			x = x << (64 - 8*r) >> (64 - 8*r)
		}
		top = max(top, uint16(x), uint16(x>>16), uint16(x>>32), uint16(x>>48))
	}
	for ; q+1 < n; q += 2 {
		top = max(top, uint16(buf[q])|uint16(buf[q+1])<<8)
	}
	return top
}

// records calls fn with every tweet record of the segment, in id order.
func (s *Segment) records(fn func(rec []byte)) {
	for b, sp := range s.tweetBlocks {
		buf := s.data[sp.off : sp.off+sp.blen]
		for r := min(s.numTweets-b*TweetBlockLen, TweetBlockLen); r > 0; r-- {
			n := recordLen(buf)
			fn(buf[:n])
			buf = buf[n:]
		}
	}
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
// no allocation once the scratch fits the widest post seen.
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

// matchScratch holds the per-call decode buffers of MatchTokensAppend.
type matchScratch struct {
	a, b  []microblog.TweetID
	metas []*termMeta
}

var matchPool = sync.Pool{New: func() any { return &matchScratch{} }}

// MatchTokensAppend is the segment's zero-copy matcher, the contract
// of microblog.TermIndex.MatchAppend: it writes the segment-local ids
// of all posts containing every one of tokens (one term, tokenized by
// the caller) into buf (capacity reused, contents discarded) and
// returns the filled buffer. Posting lists are decoded block by block
// straight off the image, then intersected rarest-first through the
// galloping microblog.IntersectInto, exactly as the in-heap index does,
// which is what makes a segment bit-identical to the corpus it was
// encoded from.
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
		buf = s.decodePostings(buf, &s.blocks[b])
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
		buf = s.decodePostings(buf, &s.blocks[i])
	}
	return buf
}

// decodePostings appends one posting block to dst, decoded off the image.
// Open decoded every block with decodePostingsBlock's checks,
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
// sequentially, straight off the image, so paging the whole log leaves
// no decoded posts in heap. The *Tweet is scratch, overwritten
// by the next post; its Text, Terms and Mentions may be kept. A
// term-coded post's Terms are the dictionary's and its Text their
// join; a raw post's Terms are textutil.Tokenize of its text, exactly
// what microblog.MakeTweet rendered when the post arrived (see the
// format's tweets section). The range is clipped to the segment.
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
			h := blockUvarint(&buf)
			body := buf[:bodyLen(h)]
			buf = buf[len(body):]
			if h&1 == 1 {
				tw.Text = string(body)
				tw.Terms = textutil.Tokenize(tw.Text)
			} else {
				tw.Terms = make([]string, len(body)/2)
				for k := range tw.Terms {
					tw.Terms[k] = s.termList[binary.LittleEndian.Uint16(body[2*k:])]
				}
				tw.Text = strings.Join(tw.Terms, " ")
			}
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
