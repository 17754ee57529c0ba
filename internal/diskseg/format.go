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
	data, err := Encode(c)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Encode renders a sealed corpus-backed segment into the on-disk byte
// format. Exported separately from Write so tests (and the fault
// suite) can corrupt or truncate a valid image deterministically. A
// retweet count the feature column's 32 bits cannot hold is an error,
// not a truncation: the segment then stays in heap, where it is exact.
func Encode(c *microblog.Corpus) ([]byte, error) {
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
		binary.LittleEndian.PutUint32(stats[4*u:], uint32(c.NumTweetsBy(world.UserID(u))))
		binary.LittleEndian.PutUint32(stats[4*(numUsers+u):], uint32(c.NumMentionsOf(world.UserID(u))))
		binary.LittleEndian.PutUint32(stats[4*(2*numUsers+u):], uint32(c.NumRetweetsOf(world.UserID(u))))
	}

	// dict + postings: per term a block directory, blocks delta-varint
	// encoded in dictionary order.
	var dict, postings []byte
	for _, tok := range terms {
		ids := c.Postings(tok)
		dict = binary.AppendUvarint(dict, uint64(len(tok)))
		dict = append(dict, tok...)
		dict = binary.AppendUvarint(dict, uint64(len(ids)))
		for off := 0; off < len(ids); off += microblog.PostingsBlockLen {
			end := off + microblog.PostingsBlockLen
			if end > len(ids) {
				end = len(ids)
			}
			blockStart := len(postings)
			postings = microblog.AppendPostingsBlock(postings, ids[off:end])
			dict = binary.AppendUvarint(dict, uint64(ids[off]))
			dict = binary.AppendUvarint(dict, uint64(len(postings)-blockStart))
		}
	}

	// tweets + tweetdir: varint records in blocks of TweetBlockLen,
	// terms as dictionary ids (decoded tweets share the dictionary's
	// strings — no re-tokenization, bit-identical Terms).
	numTweetBlocks := (len(tweets) + TweetBlockLen - 1) / TweetBlockLen
	tweetDir := make([]byte, 4*numTweetBlocks)
	var tweetSec []byte
	for b := 0; b < numTweetBlocks; b++ {
		start := len(tweetSec)
		lo, hi := b*TweetBlockLen, (b+1)*TweetBlockLen
		if hi > len(tweets) {
			hi = len(tweets)
		}
		for i := lo; i < hi; i++ {
			tw := &tweets[i]
			tweetSec = binary.AppendUvarint(tweetSec, uint64(tw.Topic+1))
			tweetSec = binary.AppendUvarint(tweetSec, uint64(len(tw.Terms)))
			for _, tok := range tw.Terms {
				tweetSec = binary.AppendUvarint(tweetSec, termID[tok])
			}
			tweetSec = binary.AppendUvarint(tweetSec, uint64(len(tw.Text)))
			tweetSec = append(tweetSec, tw.Text...)
		}
		binary.LittleEndian.PutUint32(tweetDir[4*b:], uint32(len(tweetSec)-start))
	}

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

	// Assemble: header, then sections back to back.
	sections := [numSections][]byte{stats, dict, postings, tweetDir, tweetSec, features}
	total := headerSize
	for _, s := range sections {
		total += len(s)
	}
	out := make([]byte, headerSize, total)
	copy(out, magic[:])
	binary.LittleEndian.PutUint32(out[8:], formatVersion)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(tweets)))
	binary.LittleEndian.PutUint32(out[16:], uint32(numUsers))
	binary.LittleEndian.PutUint32(out[20:], uint32(len(terms)))
	binary.LittleEndian.PutUint32(out[24:], uint32(numTweetBlocks))
	off := uint64(headerSize)
	for i, s := range sections {
		p := 28 + 20*i
		binary.LittleEndian.PutUint64(out[p:], off)
		binary.LittleEndian.PutUint64(out[p+8:], uint64(len(s)))
		binary.LittleEndian.PutUint32(out[p+16:], crc32.ChecksumIEEE(s))
		off += uint64(len(s))
	}
	binary.LittleEndian.PutUint32(out[headerSize-4:], crc32.ChecksumIEEE(out[:headerSize-4]))
	for _, s := range sections {
		out = append(out, s...)
	}
	return out, nil
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
