// The on-disk sealed-segment format. One segment is one file:
//
//	header      magic, version, counts, section table, header CRC
//	stats       three little-endian arrays of numUsers entries each —
//	            posts authored and mentions received (uint32), retweets
//	            received (uint64) per user; read in place, no decode
//	dict        the sorted term dictionary: per term its token bytes,
//	            total posting count and a block directory (first id +
//	            byte length per block)
//	postings    delta-varint posting blocks (microblog.PostingsBlockLen
//	            ids each), concatenated in dictionary order
//	tweetdir    little-endian uint32 byte lengths of the tweet blocks
//	tweets      varint-packed tweet records (topic, text) in blocks of
//	            TweetBlockLen. A post's terms are not stored: every
//	            post is rendered by microblog.MakeTweet, whose terms are
//	            textutil.Tokenize of the text, and an image never
//	            outlives the process that wrote it, so Scan re-tokenizes
//	features    the per-tweet ranking column, read in place, no decode:
//	            numTweets+1 rows of three little-endian uint32 — author
//	            (top bit: the post has a "#" term), retweet count, and
//	            the byte offset of the post's mentions in the pool that
//	            follows the rows — then the pool, one uvarint per
//	            mentioned user. Post i's mentions are the pool bytes
//	            between row i's offset and row i+1's; the last row is a
//	            sentinel carrying only the pool length. Author, retweets
//	            and mentions are stored here and nowhere else.
//
// Every section carries a CRC32 in the header; Open verifies all of
// them, and the structure of the dictionary, every posting block, the
// tweet directory, every tweet record and the feature column, before
// handing out a segment, so the zero-copy
// read path can decode straight off the map without re-validating — a
// truncated, short-read or bit-flipped file fails cleanly at open time
// and can never produce a wrong posting or a wrong ranking.
//
// Earlier versions — 1 (no feature column, features inside the tweet
// records) and 2 (32-bit retweets-received stats) — are rejected with
// ErrCorrupt: the spill directory is wiped at boot, so no old file
// outlives the process that wrote it.
package diskseg

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"slices"
	"strings"

	"repro/internal/microblog"
	"repro/internal/world"
)

// MaxRetweetCount is the largest retweet count a post's feature row
// holds (32 bits). Encode refuses a post past it, or a negative one.
const MaxRetweetCount = math.MaxUint32

// TweetBlockLen is the number of tweet records per tweet block — the
// unit Scan walks: a range starting mid-block skips the records before
// it without decoding them.
const TweetBlockLen = 64

const (
	formatVersion = 3

	secStats    = 0
	secDict     = 1
	secPostings = 2
	secTweetDir = 3
	secTweets   = 4
	secFeatures = 5
	numSections = 6

	// header: magic(8) + version(4) + 4 counts(16) + numSections ×
	// (off u64 + len u64 + crc u32) + header crc(4).
	headerSize = 8 + 4 + 16 + numSections*20 + 4

	// featureRow is the byte width of one feature-column row;
	// hashtagBit marks a post with a "#" term in the row's author word
	// (user ids are non-negative int32s, so the bit is otherwise clear).
	featureRow = 12
	hashtagBit = 1 << 31

	// statsRow is the stats section's bytes per user: two uint32
	// counters and the uint64 retweets received.
	statsRow = 16
)

var magic = [8]byte{'e', '#', 'd', 's', 'k', 's', 'g', '1'}

// ErrTruncated reports a file shorter than its header or section table
// claims — a short read or a partially written spill.
var ErrTruncated = errors.New("diskseg: truncated segment file")

// ErrChecksum reports a section whose stored CRC does not match its
// bytes — corruption between write and open.
var ErrChecksum = errors.New("diskseg: segment checksum mismatch")

// ErrCorrupt reports a structurally invalid segment (bad magic,
// unknown version, a count or offset that contradicts the data).
var ErrCorrupt = errors.New("diskseg: corrupt segment")

// Encode renders a sealed corpus into the segment format: the image a
// seal loads (Load) and a spill writes (WriteFile). It is assembled in
// one buffer of exactly its length — every section is sized first, then
// written in place. A retweet count the feature column's 32 bits cannot
// hold (or a negative one) is an error, not a truncation. The corpus's
// posts must be as microblog.MakeTweet renders them — Terms is
// textutil.Tokenize of Text — since a record keeps only the text.
func Encode(c *microblog.Corpus) ([]byte, error) {
	tweets := c.Tweets()
	numUsers := c.NumUsers()

	// The dictionary, sorted through (prefix key, position) pairs: most
	// comparisons never reach the string bytes, and a swap moves 16
	// bytes.
	terms := make([]dictEntry, 0, c.NumTerms())
	c.Terms(func(tok string, ids []microblog.TweetID) { terms = append(terms, dictEntry{tok, ids}) })
	order := make([]termKey, len(terms))
	for i, e := range terms {
		order[i] = termKey{prefixKey(e.tok), uint32(i)}
	}
	slices.SortFunc(order, func(a, b termKey) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return strings.Compare(terms[a.at].tok, terms[b.at].tok)
	})

	// Sizing pass.
	var size [numSections]int
	size[secStats] = statsRow * numUsers
	for _, k := range order {
		d, p := termSize(terms[k.at].tok, terms[k.at].ids)
		size[secDict] += d
		size[secPostings] += p
	}
	poolLen := 0
	for i := range tweets {
		t := &tweets[i]
		if uint64(t.RetweetCount) > MaxRetweetCount { // negatives wrap past it too
			return nil, fmt.Errorf("diskseg: tweet %d: retweet count %d does not fit the feature column", i, t.RetweetCount)
		}
		size[secTweets] += uvarintLen(uint64(t.Topic+1)) + uvarintLen(uint64(len(t.Text))) + len(t.Text)
		for _, m := range t.Mentions {
			poolLen += uvarintLen(uint64(m))
		}
	}
	size[secTweetDir] = 4 * ((len(tweets) + TweetBlockLen - 1) / TweetBlockLen)
	size[secFeatures] = featureRow*(len(tweets)+1) + poolLen

	img, secs := reserve(size)

	// stats: three fixed-width arrays, read in place by the segment.
	for u := 0; u < numUsers; u++ {
		id := world.UserID(u)
		v := [3]uint64{uint64(c.NumTweetsBy(id)), uint64(c.NumMentionsOf(id)), uint64(c.NumRetweetsOf(id))}
		if err := putStats(secs[secStats], numUsers, u, v); err != nil {
			return nil, err
		}
	}

	// dict + postings: per term a block directory, blocks delta-varint
	// encoded in dictionary order. The posting lists come straight from
	// the corpus's index, which the equivalence spine proves correct.
	dict, postings := secs[secDict][:0], secs[secPostings][:0]
	for _, k := range order {
		dict, postings = appendTerm(dict, postings, terms[k.at].tok, terms[k.at].ids)
	}

	// tweets + tweetdir: varint records in blocks of TweetBlockLen.
	tw := tweetWriter{sec: secs[secTweets][:0], dir: secs[secTweetDir][:0]}
	for i := range tweets {
		t := &tweets[i]
		tw.sec = binary.AppendUvarint(tw.sec, uint64(t.Topic+1))
		tw.sec = binary.AppendUvarint(tw.sec, uint64(len(t.Text)))
		tw.sec = append(tw.sec, t.Text...)
		tw.endRecord()
	}
	tw.finish()

	// features: fixed-width rows (plus the sentinel), then the mention
	// pool the rows point into.
	rows := secs[secFeatures][:featureRow*(len(tweets)+1)]
	pool := secs[secFeatures][len(rows):len(rows)]
	for i := range tweets {
		t := &tweets[i]
		author := uint32(t.Author)
		if t.HasHashtag() {
			author |= hashtagBit
		}
		row := rows[featureRow*i:]
		binary.LittleEndian.PutUint32(row, author)
		binary.LittleEndian.PutUint32(row[4:], uint32(t.RetweetCount))
		binary.LittleEndian.PutUint32(row[8:], uint32(len(pool)))
		for _, m := range t.Mentions {
			pool = binary.AppendUvarint(pool, uint64(m))
		}
	}
	binary.LittleEndian.PutUint32(rows[featureRow*len(tweets)+8:], uint32(len(pool)))

	// Every section must have filled its reservation exactly: an append
	// past one would have moved to a fresh array, not into the image.
	for k, n := range [numSections]int{len(secs[secStats]), len(dict), len(postings), len(tw.dir), len(tw.sec), len(rows) + len(pool)} {
		if n != size[k] {
			panic(fmt.Sprintf("diskseg: section %d encoded %d bytes, sized %d", k, n, size[k]))
		}
	}
	putHeader(img, len(tweets), numUsers, len(terms), size)
	return img, nil
}

// WriteMerged merges segments (EncodeMerged) and writes the image to
// path (WriteFile).
func WriteMerged(path string, parts []*Segment) error {
	img, err := EncodeMerged(parts)
	if err != nil {
		return err
	}
	return WriteFile(path, img)
}

// WriteFile stores an encoded image at path, atomically: the bytes land
// in path+".tmp" first and are renamed over path only when complete, so
// a crashed or failed spill never leaves a half-written segment where
// Open might find it. A failed write removes the temporary file.
func WriteFile(path string, img []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, img, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// reserve allocates an image of the given section sizes and returns it
// with each section's span: secs[k] is exactly size[k] bytes of the
// image, capacity-capped so an append that overran its section would
// move instead of spilling into the next.
func reserve(size [numSections]int) (img []byte, secs [numSections][]byte) {
	total := headerSize
	for _, n := range size {
		total += n
	}
	img = make([]byte, total)
	off := headerSize
	for k, n := range size {
		secs[k] = img[off : off+n : off+n]
		off += n
	}
	return img, secs
}

// putHeader renders the header of an image whose sections, of the
// given sizes, follow it back to back.
func putHeader(img []byte, numTweets, numUsers, numTerms int, size [numSections]int) {
	h := img[:headerSize]
	copy(h, magic[:])
	binary.LittleEndian.PutUint32(h[8:], formatVersion)
	binary.LittleEndian.PutUint32(h[12:], uint32(numTweets))
	binary.LittleEndian.PutUint32(h[16:], uint32(numUsers))
	binary.LittleEndian.PutUint32(h[20:], uint32(numTerms))
	binary.LittleEndian.PutUint32(h[24:], uint32((numTweets+TweetBlockLen-1)/TweetBlockLen))
	off := headerSize
	for k, n := range size {
		p := 28 + 20*k
		binary.LittleEndian.PutUint64(h[p:], uint64(off))
		binary.LittleEndian.PutUint64(h[p+8:], uint64(n))
		binary.LittleEndian.PutUint32(h[p+16:], crc32.ChecksumIEEE(img[off:off+n]))
		off += n
	}
	binary.LittleEndian.PutUint32(h[headerSize-4:], crc32.ChecksumIEEE(h[:headerSize-4]))
}

// statNames label the three per-user stat arrays, in section order.
var statNames = [3]string{"posts authored", "mentions received", "retweets received"}

// putStats stores user u's three stats (posts authored, mentions and
// retweets received) in the stats section: two uint32 arrays, then a
// uint64 one. A count past 32 bits is an error: stored, it would wrap a
// ranking denominator. Retweets received sum per-post counts that fit
// 32 bits each, so their 64 bits cannot overflow.
func putStats(stats []byte, numUsers, u int, v [3]uint64) error {
	for k, x := range v[:2] {
		if x > math.MaxUint32 {
			return fmt.Errorf("diskseg: user %d: %d %s do not fit the stats section", u, x, statNames[k])
		}
		binary.LittleEndian.PutUint32(stats[4*(k*numUsers+u):], uint32(x))
	}
	binary.LittleEndian.PutUint64(stats[8*(numUsers+u):], v[2])
	return nil
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// termSize returns the bytes appendTerm writes for one term: its
// dictionary entry and its posting blocks.
func termSize(tok string, ids []microblog.TweetID) (dict, postings int) {
	dict = uvarintLen(uint64(len(tok))) + len(tok) + uvarintLen(uint64(len(ids)))
	for off := 0; off < len(ids); off += microblog.PostingsBlockLen {
		block := ids[off:min(off+microblog.PostingsBlockLen, len(ids))]
		n := uvarintLen(uint64(block[0])) // what AppendPostingsBlock writes
		for j := 1; j < len(block); j++ {
			n += uvarintLen(uint64(block[j] - block[j-1]))
		}
		dict += uvarintLen(uint64(block[0])) + uvarintLen(uint64(n))
		postings += n
	}
	return dict, postings
}

// appendTerm appends one dictionary entry and the term's posting blocks:
// the token, its posting count and, per block of PostingsBlockLen ids,
// the block's first id and encoded length.
func appendTerm(dict, postings []byte, tok string, ids []microblog.TweetID) ([]byte, []byte) {
	dict = binary.AppendUvarint(dict, uint64(len(tok)))
	dict = append(dict, tok...)
	dict = binary.AppendUvarint(dict, uint64(len(ids)))
	for off := 0; off < len(ids); off += microblog.PostingsBlockLen {
		end := min(off+microblog.PostingsBlockLen, len(ids))
		blockStart := len(postings)
		postings = microblog.AppendPostingsBlock(postings, ids[off:end])
		dict = binary.AppendUvarint(dict, uint64(ids[off]))
		dict = binary.AppendUvarint(dict, uint64(len(postings)-blockStart))
	}
	return dict, postings
}

// tweetWriter collects tweet records (sec) and cuts them into blocks of
// TweetBlockLen, recording each block's byte length in the directory.
type tweetWriter struct {
	sec, dir []byte
	n, start int // records written; where the open block starts in sec
}

// endRecord closes the record just appended to sec.
func (w *tweetWriter) endRecord() {
	if w.n++; w.n%TweetBlockLen == 0 {
		w.endBlock()
	}
}

// finish closes a short last block.
func (w *tweetWriter) finish() {
	if w.n%TweetBlockLen != 0 {
		w.endBlock()
	}
}

func (w *tweetWriter) endBlock() {
	w.dir = binary.LittleEndian.AppendUint32(w.dir, uint32(len(w.sec)-w.start))
	w.start = len(w.sec)
}

// dictEntry is one term of the corpus Encode renders, with its
// posting list.
type dictEntry struct {
	tok string
	ids []microblog.TweetID
}

// termKey orders dictEntries: a prefixKey and the entry's position.
type termKey struct {
	key uint64
	at  uint32
}

// prefixKey packs a term's first 8 bytes big-endian, zero-padded: keys
// that differ order as their terms do.
func prefixKey(tok string) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(tok) {
			k |= uint64(tok[i])
		}
	}
	return k
}

// EncodeMerged renders the concatenation of segments — a compaction —
// into one image, byte-identical to Encode over a corpus of their posts
// back to back, straight from their encoded sections, with no post
// decoded into heap:
//
//   - stats: the parts' per-user counters summed;
//   - dict + postings: a k-way merge of the parts' sorted dictionaries;
//     a term's list is its parts' blocks decoded back to back, rebased
//     by the posts before each part, and re-blocked;
//   - tweets + tweetdir: records copied as they are, cut into blocks
//     afresh;
//   - features: rows copied with their mention offsets rebased by the
//     pool bytes before the part, then the pools back to back.
//
// Only the merged dictionary and postings go through scratch buffers:
// once they are built every other section's size is known, so the image
// is allocated once, at its exact length. The parts stay open and
// untouched; their block caches are bypassed. Open validated every byte
// read here, so the walk decodes unchecked. The parts must share a user
// universe; a summed count past its stats array's width is an error, as
// it is for Encode.
func EncodeMerged(parts []*Segment) ([]byte, error) {
	if len(parts) == 0 {
		return nil, errors.New("diskseg: merge of no segments")
	}
	numUsers := parts[0].numUsers
	numTweets := 0
	var hint [numSections]int // the parts' section bytes: capacity hints, and the merged tweets section exactly
	for _, p := range parts {
		if p.numUsers != numUsers {
			return nil, fmt.Errorf("diskseg: merge of %d- and %d-user segments", numUsers, p.numUsers)
		}
		numTweets += p.numTweets
		for k, sec := range p.secs {
			hint[k] += sec.n
		}
	}

	heads := make([]int, len(parts)) // each part's next dictionary term
	before := make([]microblog.TweetID, len(parts))
	for j := 1; j < len(parts); j++ {
		before[j] = before[j-1] + microblog.TweetID(parts[j-1].numTweets)
	}
	dict := make([]byte, 0, hint[secDict]+hint[secDict]/8)
	postings := make([]byte, 0, hint[secPostings]+hint[secPostings]/8)
	var ids []microblog.TweetID
	numTerms := 0
	for ; ; numTerms++ {
		tok, found := "", false
		for j, p := range parts {
			if h := heads[j]; h < len(p.termList) && (!found || p.termList[h] < tok) {
				tok, found = p.termList[h], true
			}
		}
		if !found {
			break
		}
		ids = ids[:0]
		for j, p := range parts {
			h := heads[j]
			if h == len(p.termList) || p.termList[h] != tok {
				continue
			}
			heads[j]++
			at := len(ids)
			m := &p.metas[h]
			for b := m.lo; b < m.hi; b++ {
				ids = p.decodePostings(ids, &p.blocks[b])
			}
			for k := at; k < len(ids); k++ {
				ids[k] += before[j]
			}
		}
		dict, postings = appendTerm(dict, postings, tok, ids)
	}

	size := [numSections]int{
		secStats:    statsRow * numUsers,
		secDict:     len(dict),
		secPostings: len(postings),
		secTweetDir: 4 * ((numTweets + TweetBlockLen - 1) / TweetBlockLen),
		secTweets:   hint[secTweets], // records are copied as they are
		secFeatures: featureRow * (numTweets + 1),
	}
	for _, p := range parts {
		size[secFeatures] += p.poolLen()
	}
	img, secs := reserve(size)

	for u := 0; u < numUsers; u++ {
		var v [3]uint64
		for _, p := range parts {
			for k := range v[:2] {
				v[k] += uint64(binary.LittleEndian.Uint32(p.data[p.statsOff+4*(k*numUsers+u):]))
			}
			v[2] += binary.LittleEndian.Uint64(p.data[p.statsOff+8*(numUsers+u):])
		}
		if err := putStats(secs[secStats], numUsers, u, v); err != nil {
			return nil, err
		}
	}
	copy(secs[secDict], dict)
	copy(secs[secPostings], postings)

	tw := tweetWriter{sec: secs[secTweets][:0], dir: secs[secTweetDir][:0]}
	for _, p := range parts {
		for b, sp := range p.tweetBlocks {
			buf := p.data[sp.off : sp.off+sp.blen]
			for r := min(p.numTweets-b*TweetBlockLen, TweetBlockLen); r > 0; r-- {
				n := recordLen(buf)
				tw.sec = append(tw.sec, buf[:n]...)
				buf = buf[n:]
				tw.endRecord()
			}
		}
	}
	tw.finish()

	rows, poolLen := secs[secFeatures], 0
	for _, p := range parts {
		n := copy(rows, p.data[p.featOff:p.featOff+featureRow*p.numTweets])
		for r := 8; r < n; r += featureRow {
			binary.LittleEndian.PutUint32(rows[r:], binary.LittleEndian.Uint32(rows[r:])+uint32(poolLen))
		}
		rows = rows[n:]
		poolLen += p.poolLen()
	}
	binary.LittleEndian.PutUint32(rows[8:], uint32(poolLen))
	pool := secs[secFeatures][featureRow*(numTweets+1):][:0]
	for _, p := range parts {
		pool = append(pool, p.data[p.poolOff:p.poolOff+p.poolLen()]...)
	}

	putHeader(img, numTweets, numUsers, numTerms, size)
	return img, nil
}

// recordLen returns the byte length of the tweet record at the front
// of buf: topic, text length, text. Open walked every record, so it
// decodes unchecked.
func recordLen(buf []byte) int {
	_, n := binary.Uvarint(buf)
	tlen, m := binary.Uvarint(buf[n:])
	return n + m + int(tlen)
}

// section is one parsed section table row.
type section struct {
	off, n int
}

// parseHeader validates magic, version, bounds and every section CRC,
// returning the counts and section spans. All failure modes are clean
// errors: ErrTruncated when the file is shorter than it claims,
// ErrChecksum on CRC mismatch, ErrCorrupt on structural nonsense.
func parseHeader(data []byte) (numTweets, numUsers, numTerms, numTweetBlocks int, secs [numSections]section, err error) {
	// Magic and version first: the header's size, and so where its CRC
	// sits, depends on the version.
	if len(data) < 12 {
		err = fmt.Errorf("%d bytes, no room for magic and version: %w", len(data), ErrTruncated)
		return
	}
	if string(data[:8]) != string(magic[:]) {
		err = fmt.Errorf("bad magic: %w", ErrCorrupt)
		return
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		err = fmt.Errorf("version %d, want %d: %w", v, formatVersion, ErrCorrupt)
		return
	}
	if len(data) < headerSize {
		err = fmt.Errorf("%d bytes, need %d header bytes: %w", len(data), headerSize, ErrTruncated)
		return
	}
	if crc32.ChecksumIEEE(data[:headerSize-4]) != binary.LittleEndian.Uint32(data[headerSize-4:]) {
		err = fmt.Errorf("header: %w", ErrChecksum)
		return
	}
	numTweets = int(binary.LittleEndian.Uint32(data[12:]))
	if numTweets > math.MaxInt32 { // tweet ids are int32
		err = fmt.Errorf("%d tweets: %w", numTweets, ErrCorrupt)
		return
	}
	numUsers = int(binary.LittleEndian.Uint32(data[16:]))
	numTerms = int(binary.LittleEndian.Uint32(data[20:]))
	numTweetBlocks = int(binary.LittleEndian.Uint32(data[24:]))
	want := (numTweets + TweetBlockLen - 1) / TweetBlockLen
	if numTweetBlocks != want {
		err = fmt.Errorf("%d tweet blocks for %d tweets: %w", numTweetBlocks, numTweets, ErrCorrupt)
		return
	}
	for i := 0; i < numSections; i++ {
		p := 28 + 20*i
		off := binary.LittleEndian.Uint64(data[p:])
		n := binary.LittleEndian.Uint64(data[p+8:])
		if off > uint64(len(data)) || n > uint64(len(data))-off {
			err = fmt.Errorf("section %d [%d:+%d) past %d file bytes: %w", i, off, n, len(data), ErrTruncated)
			return
		}
		secs[i] = section{off: int(off), n: int(n)}
		if crc32.ChecksumIEEE(data[off:off+n]) != binary.LittleEndian.Uint32(data[p+16:]) {
			err = fmt.Errorf("section %d: %w", i, ErrChecksum)
			return
		}
	}
	if secs[secStats].n != statsRow*numUsers {
		err = fmt.Errorf("stats section %d bytes for %d users: %w", secs[secStats].n, numUsers, ErrCorrupt)
		return
	}
	if secs[secTweetDir].n != 4*numTweetBlocks {
		err = fmt.Errorf("tweetdir section %d bytes for %d blocks: %w", secs[secTweetDir].n, numTweetBlocks, ErrCorrupt)
		return
	}
	if secs[secFeatures].n < featureRow*(numTweets+1) {
		err = fmt.Errorf("features section %d bytes for %d tweets: %w", secs[secFeatures].n, numTweets, ErrCorrupt)
		return
	}
	return
}
