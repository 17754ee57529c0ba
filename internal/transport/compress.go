// The OpDeflate compression envelope. Negotiated in OpInfo
// (FeatureCompress), it wraps one inner frame — op byte, inflated
// length as a uvarint, flate stream — so the fat messages (OpTweets
// pages, OpIngest batches, large candidate responses) shrink without
// touching any other codec. Compression gates only the send side:
// every receiver decodes envelopes unconditionally, and a sender skips
// the envelope whenever it would not actually shrink the payload, so
// the worst case is the uncompressed status quo.
package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// CompressMin is the payload size below which a compression-negotiated
// connection still sends plain frames: small frames (epoch probes,
// search requests) are dominated by syscall cost, and flate overhead
// would grow them.
const CompressMin = 512

// deflater is a pooled flate writer together with the sink it writes
// through (a local sink would escape through the io.Writer, one heap
// object per envelope).
type deflater struct {
	fw *flate.Writer // over &w
	w  appendWriter
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	// BestSpeed: the wire is usually a datacenter hop, so favor cycles
	// over ratio. NewWriter only errors on an invalid level.
	d.fw, _ = flate.NewWriter(&d.w, flate.BestSpeed)
	return d
}}

// inflater is a pooled flate reader together with everything it reads
// through, so inflating an envelope allocates nothing: the bytes.Reader
// it is reset onto and the one-byte buffer of the end-of-stream probe
// (a local would escape through the io.Reader).
type inflater struct {
	src   bytes.Reader
	fr    io.ReadCloser // a flate reader over &src
	probe [1]byte
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.fr = flate.NewReader(&in.src)
	return in
}}

// appendWriter adapts an append-grown byte slice to io.Writer for the
// pooled flate writer.
type appendWriter struct{ buf []byte }

// Write appends p to the underlying slice; it never fails.
func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// AppendDeflate appends the OpDeflate envelope payload for one inner
// frame (op, payload) to buf. Callers compare the result's length to
// the raw payload and send whichever is smaller.
func AppendDeflate(buf []byte, op Op, payload []byte) []byte {
	buf = append(buf, byte(op))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	d := deflaters.Get().(*deflater)
	d.w.buf = buf
	d.fw.Reset(&d.w)
	d.fw.Write(payload) // cannot fail: appendWriter never errors
	d.fw.Close()
	buf = d.w.buf
	// An idle pooled deflater must not pin the caller's connection buffer.
	d.w.buf = nil
	deflaters.Put(d)
	return buf
}

// ConsumeDeflate decodes one OpDeflate envelope payload, inflating
// into dst (capacity reused, contents discarded), and returns the
// inner op and payload. Hostile inputs are bounded the same way raw
// frames are: the declared inflated length is capped at MaxFrame, the
// output buffer grows geometrically only as far as the stream actually
// inflates, nesting is rejected, and the stream must end exactly at
// the declared length.
func ConsumeDeflate(dst []byte, payload []byte) (Op, []byte, error) {
	if len(payload) < 2 {
		return 0, dst[:0], fmt.Errorf("deflate envelope: %w", ErrFrameTruncated)
	}
	inner := Op(payload[0])
	if inner == OpDeflate {
		return 0, dst[:0], fmt.Errorf("transport: nested deflate envelope")
	}
	rawLen, rest, err := consumeUvarint(payload[1:])
	if err != nil {
		return 0, dst[:0], fmt.Errorf("deflate envelope length: %w", err)
	}
	if rawLen == 0 || rawLen > MaxFrame-1 {
		return 0, dst[:0], fmt.Errorf("deflate envelope claims %d bytes: %w", rawLen, ErrFrameTooLarge)
	}
	in := inflaters.Get().(*inflater)
	defer func() {
		// An idle pooled inflater must not pin the caller's frame buffer.
		in.src.Reset(nil)
		inflaters.Put(in)
	}()
	in.src.Reset(rest)
	fr := in.fr
	if err := fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return 0, dst[:0], fmt.Errorf("deflate reset: %w", err)
	}
	dst = dst[:0]
	for uint64(len(dst)) < rawLen {
		// Read in bounded chunks, doubling capacity as the stream earns
		// it, so a lying length prefix costs what actually inflates, not
		// what it claims.
		want := int(min(rawLen-uint64(len(dst)), 64<<10))
		if cap(dst) < len(dst)+want {
			grown := make([]byte, len(dst), max(len(dst)+want, 2*cap(dst)))
			copy(grown, dst)
			dst = grown
		}
		start := len(dst)
		dst = dst[:start+want]
		n, err := io.ReadFull(fr, dst[start:])
		dst = dst[:start+n]
		if err != nil {
			return 0, dst[:0], fmt.Errorf("deflate body: %w: %v", ErrFrameTruncated, err)
		}
	}
	switch _, err := io.ReadFull(fr, in.probe[:]); err {
	case io.EOF:
		// The stream terminated cleanly exactly at rawLen.
	case nil:
		return 0, dst[:0], fmt.Errorf("transport: deflate body exceeds declared %d bytes", rawLen)
	default:
		// All rawLen bytes inflated but the stream is not cleanly
		// terminated — a truncation that happened to spare the content
		// bits. Reject it like any other cut.
		return 0, dst[:0], fmt.Errorf("deflate termination: %w: %v", ErrFrameTruncated, err)
	}
	return inner, dst, nil
}
