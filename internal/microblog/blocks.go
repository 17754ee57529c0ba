// Posting-block codec: the delta-varint encoding the disk-tiered
// sealed-segment format (internal/diskseg) stores posting lists in.
// A posting list is split into fixed-size blocks; every block is
// independently decodable — the first id travels absolute, every later
// id as the positive delta to its predecessor — so a reader can skip
// straight to the block that covers a target id (the block directory
// carries each block's first id) and decode only what a query touches.
// The codec lives here, next to IntersectInto, because a decoded block
// is exactly the ascending []TweetID the galloping intersection
// consumes: decode straight off an mmap'd segment, feed the existing
// zero-copy matching path, no intermediate representation.
//
// The idiom (uvarints, deltas, decode guards that never trust a count
// past the bytes present) is the same one the expertise wire codec
// proved for the scatter-gather exchange rows.

package microblog

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PostingsBlockLen is the number of tweet ids per posting block — the
// granularity of block-directory skips.
const PostingsBlockLen = 128

// ErrBlockCorrupt reports a posting block that ends mid-varint, breaks
// the ascending-id invariant, or overflows TweetID.
var ErrBlockCorrupt = errors.New("microblog: corrupt posting block")

// AppendPostingsBlock appends one independently decodable block to buf:
// ids[0] absolute, every later id as the uvarint delta to its
// predecessor. ids must be ascending and strictly deduplicated, as
// posting lists are by construction; the encoder panics otherwise
// rather than produce an undecodable block.
func AppendPostingsBlock(buf []byte, ids []TweetID) []byte {
	prev := int64(-1)
	for _, id := range ids {
		if int64(id) <= prev {
			panic("microblog: posting block ids not strictly ascending")
		}
		if prev < 0 {
			buf = binary.AppendUvarint(buf, uint64(id))
		} else {
			buf = binary.AppendUvarint(buf, uint64(int64(id)-prev))
		}
		prev = int64(id)
	}
	return buf
}

// DecodePostingsBlock decodes exactly n ids off the front of data,
// appending them to dst (capacity reused, contents discarded is the
// caller's choice — this appends), and returns the filled slice plus
// the remaining bytes. It never trusts the input: a block that ends
// early, encodes a zero delta, or walks an id past the TweetID range
// fails with ErrBlockCorrupt instead of producing a wrong posting.
func DecodePostingsBlock(dst []TweetID, data []byte, n int) ([]TweetID, []byte, error) {
	prev := int64(-1)
	for i := 0; i < n; i++ {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return dst, data, fmt.Errorf("posting %d/%d: %w", i, n, ErrBlockCorrupt)
		}
		data = data[k:]
		var id int64
		if prev < 0 {
			id = int64(v)
		} else {
			if v == 0 {
				return dst, data, fmt.Errorf("posting %d/%d: zero delta: %w", i, n, ErrBlockCorrupt)
			}
			id = prev + int64(v)
		}
		if id < 0 || id > int64(^uint32(0)>>1) {
			return dst, data, fmt.Errorf("posting %d/%d: id out of range: %w", i, n, ErrBlockCorrupt)
		}
		dst = append(dst, TweetID(id))
		prev = id
	}
	return dst, data, nil
}
