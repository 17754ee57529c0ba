package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/shard"
	"repro/internal/world"
)

// Tracing lives in the benchmark's own files: spans are recorded around
// the calls into each layer's public seam, from wrappers interposed
// where the harness assembles the stack in one process. It is never on
// during an end-to-end run — the real processes carry no wrappers — and
// the traced pass is compared with an unwrapped pass of the same stack
// to state what the wrappers cost.

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span whose call caused this one (-1 for the
// request's root). Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. The traced run is
// one request at a time, so "the current request" and "the current
// core call" are well defined even when the scatter stage hands shard
// calls to worker goroutines; the mutex only orders those workers.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	req   int // id of the request in flight
	root  int // its gateway span
	core  int // its open core span: the parent of shard spans
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), req: -1} }

func (r *recorder) begin(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req, Name: name, Start: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// tracedHandler spans ServeHTTP: the gateway and, inside it, serve.
type tracedHandler struct {
	h   http.Handler
	rec *recorder
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	t.rec.req++
	id := t.rec.begin("gateway", -1)
	t.rec.root = id
	t.h.ServeHTTP(w, req)
	t.rec.end(id)
}

// tracedBackend spans serve's calls into core. Embedding the detector
// keeps every optional interface serve probes for (context, epoch
// vector, partial and failover reporting), so the wrapped stack takes
// the same paths as the bare one.
type tracedBackend struct {
	*core.ShardedLiveDetector
	rec *recorder
}

func (t tracedBackend) Search(query string) ([]expertise.Expert, core.SearchTrace) {
	experts, tr, _ := t.SearchContext(context.Background(), query)
	return experts, tr
}

func (t tracedBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	id := t.rec.begin("core", t.rec.root)
	t.rec.core = id
	experts, tr, err := t.ShardedLiveDetector.SearchContext(ctx, query)
	t.rec.end(id)
	return experts, tr, err
}

// shardBackend is what both shard.Local and transport.RemoteShard are:
// a backend that answers the search→stats composite and reads its
// epoch locally. The wrapper must keep all three faces or the sharded
// detector would fall back to slower paths and the trace would measure
// a different system.
type shardBackend interface {
	shard.Backend
	shard.SearchStatser
	shard.EpochLocality
}

// tracedShard spans core's calls into one shard: the scatter call and,
// through the view it returns, the foreign-candidate top-up.
type tracedShard struct {
	shardBackend
	rec  *recorder
	name string
}

func (t tracedShard) Search(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate) ([]expertise.RawCandidate, int, shard.View, error) {
	id := t.rec.begin(t.name+".search", t.rec.core)
	rows, matched, v, err := t.shardBackend.Search(ctx, terms, extended, raw)
	t.rec.end(id)
	return rows, matched, t.wrapView(v), err
}

func (t tracedShard) SearchStats(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate, stats []expertise.UserStats) ([]expertise.RawCandidate, int, []expertise.UserStats, shard.View, error) {
	id := t.rec.begin(t.name+".search", t.rec.core)
	rows, matched, rowStats, v, err := t.shardBackend.SearchStats(ctx, terms, extended, raw, stats)
	t.rec.end(id)
	return rows, matched, rowStats, t.wrapView(v), err
}

func (t tracedShard) wrapView(v shard.View) shard.View {
	if v == nil {
		return nil
	}
	return tracedView{View: v, rec: t.rec, name: t.name + ".stats"}
}

type tracedView struct {
	shard.View
	rec  *recorder
	name string
}

func (t tracedView) Stats(ctx context.Context, users []world.UserID, dst []expertise.UserStats) ([]expertise.UserStats, error) {
	id := t.rec.begin(t.name, t.rec.core)
	out, err := t.View.Stats(ctx, users, dst)
	t.rec.end(id)
	return out, err
}

// validateSpans checks the structure the span file promises: every
// span closed, every child inside its parent's interval and in its
// parent's request, exactly one root per request.
func validateSpans(spans []span) error {
	roots := make(map[int]int)
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d carries id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			roots[s.Req]++
			continue
		}
		if s.Parent >= len(spans) {
			return fmt.Errorf("span %d (%s) names unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Req != s.Req {
			return fmt.Errorf("span %d (%s) is in request %d, its parent %d in request %d", s.ID, s.Name, s.Req, p.ID, p.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for req, n := range roots {
		if n != 1 {
			return fmt.Errorf("request %d has %d root spans", req, n)
		}
	}
	return nil
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children — a
// parallel scatter — are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			start, end := max(k.Start, edge), min(k.End, s.End)
			if end > start {
				covered += end - start
				edge = end
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTimes is the per-request breakdown the spans give, in µs.
type layerTimes struct {
	gatewayServeSelf []float64 // ServeHTTP minus the core call
	coreSelf         []float64 // core call minus the shard calls
	shardTotal       []float64 // all calls into shard backends
}

// breakdown folds spans into per-request layer times.
func breakdown(spans []span) layerTimes {
	self := selfTimes(spans)
	type acc struct{ gw, core, shard int64 }
	per := make(map[int]*acc)
	var reqs []int
	for i, s := range spans {
		a := per[s.Req]
		if a == nil {
			a = &acc{}
			per[s.Req] = a
			reqs = append(reqs, s.Req)
		}
		switch {
		case s.Name == "gateway":
			a.gw += self[i]
		case s.Name == "core":
			a.core += self[i]
		default:
			a.shard += s.dur()
		}
	}
	var lt layerTimes
	for _, req := range reqs {
		a := per[req]
		lt.gatewayServeSelf = append(lt.gatewayServeSelf, float64(a.gw)/1e3)
		lt.coreSelf = append(lt.coreSelf, float64(a.core)/1e3)
		lt.shardTotal = append(lt.shardTotal, float64(a.shard)/1e3)
	}
	return lt
}

// writeSpans writes the span file.
func writeSpans(path string, workload string, seed int64, sections map[string][]span) error {
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Spans    map[string][]span `json:"spans"`
	}{workload, seed, sections})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
