package transport

import (
	"repro/internal/ingest"
	"repro/internal/shard"
)

// DispatchConn is one server connection's request handling with the
// socket taken away: Request runs a frame through exactly the dispatch
// and pin rules a live connection's handler applies, so FuzzDispatch
// can drive the server with arbitrary frame sequences.
type DispatchConn struct {
	s  *ShardServer
	st connState
}

// NewDispatchConn serves idx as shard cfg.Shard of cfg.NumShards to one
// socketless connection.
func NewDispatchConn(idx *ingest.Index, cfg ServerConfig) *DispatchConn {
	return &DispatchConn{s: &ShardServer{idx: idx, local: shard.NewLocal(idx), cfg: cfg}}
}

// Request dispatches one request frame and returns the response op
// (opNone for a fire-and-forget request) and payload; the payload is
// valid until the next Request.
func (c *DispatchConn) Request(op Op, payload []byte) (Op, []byte) {
	respOp := c.s.respond(&c.st, op, payload)
	return respOp, c.st.out
}

// Close releases whatever snapshot the connection still pins, as the
// handler's teardown does.
func (c *DispatchConn) Close() {
	if c.st.view != nil {
		c.st.view.Release()
		c.st.view = nil
	}
}

// Room reports how many more bytes of charge the table accepts before
// it stops growing, and how many terms it holds.
func (t *TermTable) Room() (bytes, terms int) { return termTableBytes - t.bytes, len(t.terms) }

// TermCharge is what term costs a TermTable.
func TermCharge(term string) int { return termCharge(len(term)) }
