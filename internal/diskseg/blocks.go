// Posting-block codec: the delta-varint encoding the segment format
// stores posting lists in. A posting list is split into fixed-size
// blocks; every block is independently decodable — the first id travels
// absolute, every later id as the positive delta to its predecessor —
// so a reader can skip straight to the block that covers a target id
// (the block directory carries each block's first id) and decode only
// what a query touches. A decoded block is exactly the ascending
// []TweetID microblog.IntersectInto consumes: decoded straight off an
// image, it feeds the zero-copy matching path with no intermediate
// representation.

package diskseg

import (
	"encoding/binary"
	"fmt"

	"repro/internal/microblog"
)

// postingsBlockLen is the number of tweet ids per posting block — the
// granularity of block-directory skips.
const postingsBlockLen = 128

// appendPostingsBlock appends one independently decodable block to buf:
// ids[0] absolute, every later id as the uvarint delta to its
// predecessor. ids must be ascending and strictly deduplicated, as
// posting lists are by construction; the encoder panics otherwise
// rather than produce an undecodable block.
func appendPostingsBlock(buf []byte, ids []microblog.TweetID) []byte {
	prev := int64(-1)
	for _, id := range ids {
		if int64(id) <= prev {
			panic("diskseg: posting block ids not strictly ascending")
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

// decodePostingsBlock decodes exactly n ids off the front of data,
// appending them to dst, and returns the filled slice plus the
// remaining bytes. It never trusts the input: a block that ends early,
// encodes a zero delta, or walks an id past the TweetID range fails
// with ErrCorrupt instead of producing a wrong posting.
func decodePostingsBlock(dst []microblog.TweetID, data []byte, n int) ([]microblog.TweetID, []byte, error) {
	prev := int64(-1)
	for i := 0; i < n; i++ {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return dst, data, fmt.Errorf("posting %d/%d: ends mid-varint: %w", i, n, ErrCorrupt)
		}
		data = data[k:]
		var id int64
		if prev < 0 {
			id = int64(v)
		} else {
			if v == 0 {
				return dst, data, fmt.Errorf("posting %d/%d: zero delta: %w", i, n, ErrCorrupt)
			}
			id = prev + int64(v)
		}
		if id < 0 || id > int64(^uint32(0)>>1) {
			return dst, data, fmt.Errorf("posting %d/%d: id out of range: %w", i, n, ErrCorrupt)
		}
		dst = append(dst, microblog.TweetID(id))
		prev = id
	}
	return dst, data, nil
}
