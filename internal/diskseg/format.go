// The on-disk sealed-segment format. One segment is one file:
//
//	header      magic, version, counts, section table, header CRC
//	stats       three little-endian uint32 arrays of numUsers entries
//	            each — posts authored, mentions received, retweets
//	            received per user; read in place, no decode
//	dict        the sorted term dictionary: per term its token bytes,
//	            total posting count and a block directory (first id +
//	            byte length per block)
//	postings    delta-varint posting blocks (microblog.PostingsBlockLen
//	            ids each), concatenated in dictionary order
//	tweetdir    little-endian uint32 byte lengths of the tweet blocks
//	tweets      varint-packed tweet records (topic, terms, text) in
//	            blocks of TweetBlockLen, terms stored as dictionary ids
//	            so a decoded tweet shares the dictionary's strings
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
// Version 1 (no feature column, features inside the tweet records) is
// rejected with ErrCorrupt: the spill directory is wiped at boot, so
// no v1 file outlives the process that wrote it.
package diskseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"

	"repro/internal/microblog"
	"repro/internal/world"
)

// TweetBlockLen is the number of tweet records per tweet block — the
// random-access and hot-cache granularity of Tweet.
const TweetBlockLen = 64

const (
	formatVersion = 2

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

// Write rewrites a sealed in-heap segment into the on-disk format at
// path, atomically: the bytes land in path+".tmp" first and are
// renamed over path only when complete, so a crashed or failed spill
// never leaves a half-written segment where Open might find it.
func Write(path string, c *microblog.Corpus) error {
	im, err := encode(c)
	if err != nil {
		return err
	}
	return im.write(path)
}

// WriteMerged writes the concatenation of opened segments — a
// compaction whose every input is on disk — to path, atomically like
// Write. The file is byte-identical to Write of microblog.Merge over the
// same segments, but no post is decoded into heap: it is assembled from
// the parts' sections (see encodeMerged). The parts stay open and
// untouched; their block caches are bypassed.
func WriteMerged(path string, parts []*Segment) error {
	im, err := encodeMerged(parts)
	if err != nil {
		return err
	}
	return im.write(path)
}

// Encode renders a sealed corpus-backed segment into the on-disk byte
// format. Exported separately from Write so tests (and the fault
// suite) can corrupt or truncate a valid image deterministically. A
// retweet count or per-user stat the format's 32 bits cannot hold is an
// error, not a truncation: the segment then stays in heap, where it is
// exact.
func Encode(c *microblog.Corpus) ([]byte, error) {
	im, err := encode(c)
	if err != nil {
		return nil, err
	}
	return im.bytes(), nil
}

// image is one encoded segment: the header's counts and the six
// sections, which only Encode concatenates.
type image struct {
	numTweets, numUsers, numTerms int
	secs                          [numSections][]byte
}

// header renders the header describing the sections.
func (im *image) header() []byte {
	h := make([]byte, headerSize)
	copy(h, magic[:])
	binary.LittleEndian.PutUint32(h[8:], formatVersion)
	binary.LittleEndian.PutUint32(h[12:], uint32(im.numTweets))
	binary.LittleEndian.PutUint32(h[16:], uint32(im.numUsers))
	binary.LittleEndian.PutUint32(h[20:], uint32(im.numTerms))
	binary.LittleEndian.PutUint32(h[24:], uint32((im.numTweets+TweetBlockLen-1)/TweetBlockLen))
	off := uint64(headerSize)
	for i, s := range im.secs {
		p := 28 + 20*i
		binary.LittleEndian.PutUint64(h[p:], off)
		binary.LittleEndian.PutUint64(h[p+8:], uint64(len(s)))
		binary.LittleEndian.PutUint32(h[p+16:], crc32.ChecksumIEEE(s))
		off += uint64(len(s))
	}
	binary.LittleEndian.PutUint32(h[headerSize-4:], crc32.ChecksumIEEE(h[:headerSize-4]))
	return h
}

// bytes returns the whole file image: header, then sections back to
// back.
func (im *image) bytes() []byte {
	out := im.header()
	for _, s := range im.secs {
		out = append(out, s...)
	}
	return out
}

// write stores the image at path through path+".tmp" and a rename,
// section by section (the whole image is never concatenated in heap).
// A failed write removes the temporary file.
func (im *image) write(path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(im.header())
	for _, s := range im.secs {
		if err == nil {
			_, err = f.Write(s)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// statNames label the three per-user stat arrays, in section order.
var statNames = [3]string{"posts authored", "mentions received", "retweets received"}

// putStats stores user u's three stats (posts authored, mentions and
// retweets received) in the stats section. A value past 32 bits is an
// error: stored, it would wrap a ranking denominator.
func putStats(stats []byte, numUsers, u int, v [3]uint64) error {
	for k, x := range v {
		if x > math.MaxUint32 {
			return fmt.Errorf("diskseg: user %d: %d %s do not fit the stats section", u, x, statNames[k])
		}
		binary.LittleEndian.PutUint32(stats[4*(k*numUsers+u):], uint32(x))
	}
	return nil
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

// encode renders a corpus into an image (see Encode).
func encode(c *microblog.Corpus) (*image, error) {
	tweets := c.Tweets()
	numUsers := c.NumUsers()

	// Term dictionary: every distinct token of every tweet, sorted.
	// The posting lists come straight from the corpus's index, which
	// the equivalence spine already proves correct.
	termSet := map[string]struct{}{}
	for i := range tweets {
		for _, tok := range tweets[i].Terms {
			termSet[tok] = struct{}{}
		}
	}
	terms := make([]string, 0, len(termSet))
	for tok := range termSet {
		terms = append(terms, tok)
	}
	sort.Strings(terms)
	termID := make(map[string]uint64, len(terms))
	for i, tok := range terms {
		termID[tok] = uint64(i)
	}

	// stats: three fixed-width arrays, read in place by the open
	// segment.
	stats := make([]byte, 12*numUsers)
	for u := 0; u < numUsers; u++ {
		id := world.UserID(u)
		v := [3]uint64{uint64(c.NumTweetsBy(id)), uint64(c.NumMentionsOf(id)), uint64(c.NumRetweetsOf(id))}
		if err := putStats(stats, numUsers, u, v); err != nil {
			return nil, err
		}
	}

	// dict + postings: per term a block directory, blocks delta-varint
	// encoded in dictionary order.
	var dict, postings []byte
	for _, tok := range terms {
		dict, postings = appendTerm(dict, postings, tok, c.Postings(tok))
	}

	// tweets + tweetdir: varint records in blocks of TweetBlockLen,
	// terms as dictionary ids (decoded tweets share the dictionary's
	// strings — no re-tokenization, bit-identical Terms).
	tw := tweetWriter{dir: make([]byte, 0, 4*((len(tweets)+TweetBlockLen-1)/TweetBlockLen))}
	for i := range tweets {
		t := &tweets[i]
		tw.sec = binary.AppendUvarint(tw.sec, uint64(t.Topic+1))
		tw.sec = binary.AppendUvarint(tw.sec, uint64(len(t.Terms)))
		for _, tok := range t.Terms {
			tw.sec = binary.AppendUvarint(tw.sec, termID[tok])
		}
		tw.sec = binary.AppendUvarint(tw.sec, uint64(len(t.Text)))
		tw.sec = append(tw.sec, t.Text...)
		tw.endRecord()
	}
	tw.finish()

	// features: fixed-width rows (plus the sentinel), then the mention
	// pool the rows point into.
	rows := make([]byte, featureRow*(len(tweets)+1))
	var pool []byte
	for i := range tweets {
		tw := &tweets[i]
		author := uint32(tw.Author)
		if tw.HasHashtag() {
			author |= hashtagBit
		}
		if uint64(tw.RetweetCount) > math.MaxUint32 { // negatives wrap past it too
			return nil, fmt.Errorf("diskseg: tweet %d: retweet count %d does not fit the feature column", i, tw.RetweetCount)
		}
		row := rows[featureRow*i:]
		binary.LittleEndian.PutUint32(row, author)
		binary.LittleEndian.PutUint32(row[4:], uint32(tw.RetweetCount))
		binary.LittleEndian.PutUint32(row[8:], uint32(len(pool)))
		for _, m := range tw.Mentions {
			pool = binary.AppendUvarint(pool, uint64(m))
		}
	}
	binary.LittleEndian.PutUint32(rows[featureRow*len(tweets)+8:], uint32(len(pool)))
	features := append(rows, pool...)

	return &image{
		numTweets: len(tweets), numUsers: numUsers, numTerms: len(terms),
		secs: [numSections][]byte{stats, dict, postings, tw.dir, tw.sec, features},
	}, nil
}

// encodeMerged renders the concatenation of opened segments — what
// encode renders for microblog.Merge over them, byte for byte — straight
// from their sections, with no post decoded into heap:
//
//   - stats: the parts' per-user counters summed;
//   - dict + postings: a k-way merge of the parts' sorted dictionaries;
//     a term's list is its parts' blocks decoded back to back, rebased
//     by the posts before each part, and re-blocked, and remap[j] takes
//     part j's term ids to the merged dictionary's;
//   - tweets + tweetdir: records copied varint by varint with their term
//     ids remapped, texts copied as bytes, cut into blocks afresh;
//   - features: rows copied with their mention offsets rebased by the
//     pool bytes before the part, then the pools back to back.
//
// Open validated every byte read here, so the walk decodes unchecked.
// The parts must share a user universe; a summed stat past 32 bits is
// an error, as it is for Encode.
func encodeMerged(parts []*Segment) (*image, error) {
	if len(parts) == 0 {
		return nil, errors.New("diskseg: merge of no segments")
	}
	numUsers := parts[0].numUsers
	numTweets := 0
	var hint [numSections]int // the parts' section bytes: capacity hints
	for _, p := range parts {
		if p.numUsers != numUsers {
			return nil, fmt.Errorf("diskseg: merge of %d- and %d-user segments", numUsers, p.numUsers)
		}
		numTweets += p.numTweets
		for k, sec := range p.secs {
			hint[k] += sec.n
		}
	}
	grown := func(k int) []byte { return make([]byte, 0, hint[k]+hint[k]/8) }

	stats := make([]byte, 12*numUsers)
	for u := 0; u < numUsers; u++ {
		var v [3]uint64
		for _, p := range parts {
			for k := range v {
				v[k] += uint64(binary.LittleEndian.Uint32(p.data[p.statsOff+4*(k*numUsers+u):]))
			}
		}
		if err := putStats(stats, numUsers, u, v); err != nil {
			return nil, err
		}
	}

	remap := make([][]uint64, len(parts))
	heads := make([]int, len(parts)) // each part's next dictionary term
	before := make([]microblog.TweetID, len(parts))
	for j, p := range parts {
		remap[j] = make([]uint64, len(p.termList))
		if j > 0 {
			before[j] = before[j-1] + microblog.TweetID(parts[j-1].numTweets)
		}
	}
	dict, postings := grown(secDict), grown(secPostings)
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
			remap[j][h] = uint64(numTerms)
			heads[j]++
			at := len(ids)
			m := p.terms[tok]
			for b := range m.blocks {
				ids = p.decodePostings(ids, &m.blocks[b])
			}
			for k := at; k < len(ids); k++ {
				ids[k] += before[j]
			}
		}
		dict, postings = appendTerm(dict, postings, tok, ids)
	}

	tw := tweetWriter{sec: grown(secTweets), dir: grown(secTweetDir)}
	for j, p := range parts {
		for b, sp := range p.tweetBlocks {
			buf := p.data[sp.off : sp.off+sp.blen]
			for r := min(p.numTweets-b*TweetBlockLen, TweetBlockLen); r > 0; r-- {
				tw.sec = binary.AppendUvarint(tw.sec, blockUvarint(&buf)) // topic+1
				nt := blockUvarint(&buf)
				tw.sec = binary.AppendUvarint(tw.sec, nt)
				for ; nt > 0; nt-- {
					tw.sec = binary.AppendUvarint(tw.sec, remap[j][blockUvarint(&buf)])
				}
				tlen := blockUvarint(&buf)
				tw.sec = binary.AppendUvarint(tw.sec, tlen)
				tw.sec = append(tw.sec, buf[:tlen]...)
				buf = buf[tlen:]
				tw.endRecord()
			}
		}
	}
	tw.finish()

	// The parts' columns hold every merged row and pool byte, plus one
	// sentinel row per part but the last: room enough.
	features := make([]byte, featureRow*(numTweets+1), hint[secFeatures])
	rows, poolLen := features, 0
	for _, p := range parts {
		n := copy(rows, p.data[p.featOff:p.featOff+featureRow*p.numTweets])
		for r := 8; r < n; r += featureRow {
			binary.LittleEndian.PutUint32(rows[r:], binary.LittleEndian.Uint32(rows[r:])+uint32(poolLen))
		}
		rows = rows[n:]
		poolLen += p.poolLen()
	}
	binary.LittleEndian.PutUint32(rows[8:], uint32(poolLen))
	for _, p := range parts {
		features = append(features, p.data[p.poolOff:p.poolOff+p.poolLen()]...)
	}

	return &image{
		numTweets: numTweets, numUsers: numUsers, numTerms: numTerms,
		secs: [numSections][]byte{stats, dict, postings, tw.dir, tw.sec, features},
	}, nil
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
	if secs[secStats].n != 12*numUsers {
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
