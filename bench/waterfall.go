package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/gateway"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/transport"
)

// The traced run assembles in one process, on one goroutine, the stack
// the cold_heap workload runs as three processes — gateway handler →
// serve → sharded detector → two shards over the same 80k-post corpus —
// once bare, once with span recorders on every public seam, once with
// the shards behind a loopback wire. It then runs the layer waterfall:
// the same query pool through each seam of the system in turn, so that
// the difference between two adjacent rows is what one layer costs.

const (
	// passes is how often the pool runs through each stack and seam; the
	// median pass is reported.
	passes = 20
	// The write seams start from the 20k-post corpus of the mixed_ingest
	// workload they explain.
	writeCorpus = 20000
	// The two disk seams share a 4k-post spill: with the block cache off
	// a search decodes every posting block it touches, and at 20k posts
	// (6 ms and 52k allocations per search) that one seam would take
	// longer than the rest of the run.
	diskCorpus = 4096
	spillPosts = 512 // one sealed segment at the spill threshold
)

// tracedLayerNames are the per-layer metrics the traced run adds: two
// per waterfall seam, then the span-derived ones.
var tracedLayerNames = func() []string {
	var names []string
	for _, s := range []string{"core.frozen", "ingest.live", "shard.local_n1", "shard.local_n2",
		"transport.remote_n1", "replica.n1r2", "serve.miss", "serve.hit", "gateway.miss", "gateway.hit",
		"diskseg.hot", "diskseg.cold", "ingest.after_write", "ingest.post"} {
		names = append(names, s+"_us", s+"_allocs")
	}
	return append(names, "diskseg.spill_us_per_post", "diskseg.spill_allocs_per_post",
		"gateway_serve.self_us", "core.self_us", "shard.backend_us", "transport.self_us", "trace.overhead_pct")
}()

// inproc drives an http.Handler in-process, one request at a time,
// reusing the request, its body and the response writer so that what a
// seam allocates is the handler's own.
type inproc struct {
	h      http.Handler
	req    *http.Request
	body   bodyReader
	header http.Header
	status int
	out    bytes.Buffer
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func newInproc(h http.Handler) *inproc {
	p := &inproc{h: h, header: make(http.Header)}
	req, err := http.NewRequest(http.MethodPost, "/v1/search", nil)
	if err != nil {
		panic(err) // constant arguments
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Body = &p.body
	p.req = req
	return p
}

func (p *inproc) Header() http.Header         { return p.header }
func (p *inproc) WriteHeader(status int)      { p.status = status }
func (p *inproc) Write(b []byte) (int, error) { return p.out.Write(b) }

// do runs one search request body through the handler.
func (p *inproc) do(body []byte) (int, []byte) {
	p.body.Reset(body)
	p.req.ContentLength = int64(len(body))
	clear(p.header)
	p.status = http.StatusOK
	p.out.Reset()
	p.h.ServeHTTP(p, p.req)
	return p.status, p.out.Bytes()
}

// lab owns everything the traced run builds in-process.
type lab struct {
	e       *env
	closers []func()
}

func (l *lab) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
}

// shardCfg is the index configuration cmd/shardd runs with by default.
var shardCfg = ingest.Config{SealThreshold: 128, CompactFanIn: 4}

// index builds a quiesced streaming index over base + posts.
func (l *lab) index(base *microblog.Corpus, posts []microblog.Post, cfg ingest.Config) *ingest.Index {
	idx := ingest.New(base, cfg)
	l.closers = append(l.closers, idx.Close)
	idx.IngestBatch(posts)
	idx.Quiesce()
	return idx
}

// remote serves idx as shard i of n on a loopback port and returns a
// handshaken client for it.
func (l *lab) remote(idx *ingest.Index, i, n int) (*transport.RemoteShard, error) {
	srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(i, n))
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, func() { srv.Close() })
	r := transport.NewRemoteShard(srv.Addr().String(), transport.DefaultClientConfig())
	l.closers = append(l.closers, func() { r.Close() })
	if err := r.Handshake(i, n, len(l.e.pipe.World.Users), idx.Base().NumTweets()); err != nil {
		return nil, err
	}
	return r, nil
}

// sharded wires a scatter-gather detector over backends.
func (l *lab) sharded(backends ...shard.Backend) *core.ShardedLiveDetector {
	return core.NewShardedLiveDetectorOver(l.e.pipe.Collection, shard.NewCluster(l.e.pipe.World, backends...), l.e.online)
}

// front puts serve (with the given cache size) and the gateway in
// front of a backend.
func (l *lab) front(b serve.Backend, cache int) (*serve.Server, *inproc, error) {
	scfg := serve.DefaultConfig()
	scfg.CacheSize = cache
	srv := serve.New(b, scfg)
	gw, err := gateway.New(gateway.Config{
		Serve:         srv,
		Tokens:        map[string]gateway.TokenConfig{token: {}},
		DefaultBudget: 10 * time.Second,
	})
	if err != nil {
		return nil, nil, err
	}
	l.closers = append(l.closers, gw.Close)
	return srv, newInproc(gw), nil
}

// seam is one row of the waterfall: n ops per pass, each doing div
// units of work (posts per batch for the write seams, 1 for a search).
// prep runs untimed before each op.
type seam struct {
	name string
	n    int
	div  float64
	prep func(i int)
	op   func(i int)
}

// measure runs one warm-up pass and passes measured passes of s and
// returns the median pass's µs and allocations per unit of work.
// Allocations are process-wide Mallocs deltas, so a seam pays for the
// goroutines it wakes (the loopback server's, for the wire seams).
func (s seam) measure(passes int) (us, allocs float64) {
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var usPer, allocsPer []float64
	for pass := 0; pass <= passes; pass++ {
		var busy time.Duration
		var made uint64
		m0 := mallocs()
		for i := 0; i < s.n; i++ {
			if s.prep != nil {
				s.prep(i)
				m0 = mallocs()
			}
			t0 := time.Now()
			s.op(i)
			busy += time.Since(t0)
			if s.prep != nil {
				made += mallocs() - m0
			}
		}
		if s.prep == nil {
			made = mallocs() - m0
		}
		if pass == 0 {
			continue // warm-up
		}
		units := float64(s.n) * s.div
		usPer = append(usPer, float64(busy.Nanoseconds())/1e3/units)
		allocsPer = append(allocsPer, float64(made)/units)
	}
	return median(usPer), median(allocsPer)
}

// corpora are the cold_heap workload's posts in the three shapes the
// seams need: frozen, one live index over everything, and the two author
// partitions the 2-shard deployment holds.
type corpora struct {
	frozen *core.Detector
	full   *ingest.Index
	halves [2]*ingest.Index
}

// runTraced is the -trace 1 half of a run; it adds the traced-run and
// waterfall metrics to res.layers and writes the span file.
func (e *env) runTraced(w *workload, res *result, spanFile string) error {
	lb := &lab{e: e}
	defer lb.close()
	l := &lap{last: time.Now()}
	// The same two 40k-post partitions cold_heap's shardd processes
	// hold, and their union for the unsharded seams.
	parts, _ := e.preloadParts(findWorkload("cold_heap"))
	posts := append(append([]microblog.Post(nil), parts[0]...), parts[1]...)
	c := corpora{
		frozen: core.NewDetector(e.pipe.Collection, e.pipe.Corpus.ExtendedWith(posts), e.online),
		full:   lb.index(e.pipe.Corpus, posts, shardCfg),
	}
	for i := range c.halves {
		c.halves[i] = lb.index(shard.Partition(e.pipe.Corpus, i, 2), parts[i], shardCfg)
	}
	l.mark("trace build")
	if err := lb.tracedPasses(c, w, res, spanFile); err != nil {
		return err
	}
	l.mark("traced passes")
	if err := lb.waterfall(c, res); err != nil {
		return err
	}
	l.mark("waterfall")
	return nil
}

// tracedPasses runs the pool through the bare, the traced and the
// traced-over-the-wire stack, writes the spans and reports what they
// say about each layer.
func (lb *lab) tracedPasses(c corpora, w *workload, res *result, spanFile string) error {
	e, pool := lb.e, lb.e.pool
	// Each stack is verified against the frozen detector on its warm-up
	// pass: the wrappers must not change a byte.
	want := make([][]byte, len(pool))
	for q, query := range pool {
		want[q] = expectedExperts(c.frozen, query)
	}
	pass := func(p *inproc, check bool) (time.Duration, error) {
		t0 := time.Now()
		for q := range pool {
			status, body := p.do(e.bodies[q])
			if status != http.StatusOK {
				return 0, fmt.Errorf("bench: traced run: %q answered %d: %s", pool[q], status, body)
			}
			if check {
				if same, err := sameExperts(body, want[q]); !same {
					return 0, fmt.Errorf("bench: traced run: %q differs from the frozen detector (%v)", pool[q], err)
				}
			}
		}
		return time.Since(t0), nil
	}
	stack := func(rec *recorder, backends [2]shardBackend) (*inproc, error) {
		var bs []shard.Backend
		for i, b := range backends {
			if rec != nil {
				b = tracedShard{shardBackend: b, rec: rec, name: fmt.Sprintf("shard[%d]", i)}
			}
			bs = append(bs, b)
		}
		det := lb.sharded(bs...)
		var backend serve.Backend = det
		if rec != nil {
			backend = tracedBackend{ShardedLiveDetector: det, rec: rec}
		}
		_, p, err := lb.front(backend, 0)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			p.h = tracedHandler{h: p.h, rec: rec}
		}
		_, err = pass(p, true) // warm-up + verification; its spans are dropped below
		return p, err
	}
	locals := [2]shardBackend{shard.NewLocal(c.halves[0]), shard.NewLocal(c.halves[1])}
	var remotes [2]shardBackend
	for i := range remotes {
		r, err := lb.remote(c.halves[i], i, 2)
		if err != nil {
			return err
		}
		remotes[i] = r
	}
	recLocal, recRemote := newRecorder(), newRecorder()
	bare, err := stack(nil, locals)
	if err != nil {
		return err
	}
	tracedLocal, err := stack(recLocal, locals)
	if err != nil {
		return err
	}
	tracedRemote, err := stack(recRemote, remotes)
	if err != nil {
		return err
	}
	recLocal.spans, recRemote.spans = nil, nil
	recLocal.req, recRemote.req = -1, -1
	var bareTimes, tracedTimes []float64
	for i := 0; i < passes; i++ {
		// Alternate bare and traced passes so that drift hits both.
		for _, side := range []struct {
			p   *inproc
			dst *[]float64
		}{{bare, &bareTimes}, {tracedLocal, &tracedTimes}, {tracedRemote, nil}} {
			d, err := pass(side.p, false)
			if err != nil {
				return err
			}
			if side.dst != nil {
				*side.dst = append(*side.dst, d.Seconds())
			}
		}
	}
	sections := map[string][]span{"local": recLocal.spans, "remote": recRemote.spans}
	for name, spans := range sections {
		if err := validateSpans(spans); err != nil {
			return fmt.Errorf("bench: %s spans: %w", name, err)
		}
	}
	if err := writeSpans(spanFile, w.name, e.seed, sections); err != nil {
		return err
	}
	lt, rt := breakdown(recLocal.spans), breakdown(recRemote.spans)
	res.layers["gateway_serve.self_us"] = value{Value: median(lt.gatewayServeSelf), Unit: "us"}
	res.layers["core.self_us"] = value{Value: median(lt.coreSelf), Unit: "us"}
	res.layers["shard.backend_us"] = value{Value: median(lt.shardTotal), Unit: "us"}
	res.layers["transport.self_us"] = value{Value: median(rt.shardTotal) - median(lt.shardTotal), Unit: "us"}
	res.layers["trace.overhead_pct"] = value{Value: 100 * (median(tracedTimes) - median(bareTimes)) / median(bareTimes), Unit: "%",
		note: fmt.Sprintf("%d spans in %s", len(recLocal.spans)+len(recRemote.spans), spanFile)}
	return nil
}

// waterfall runs the pool through each seam of the system in turn.
func (lb *lab) waterfall(c corpora, res *result) error {
	e, pipe, pool := lb.e, lb.e.pipe, lb.e.pool
	search := func(search func(string) ([]expertise.Expert, core.SearchTrace)) func(int) {
		return func(q int) { search(pool[q]) }
	}
	remoteFull, err := lb.remote(c.full, 0, 1)
	if err != nil {
		return err
	}
	// Both replicas read the same index: the seam prices the set's
	// rotation and freshness checks, not a second copy of the data.
	replicated, err := replica.NewSet([]shard.Backend{shard.NewLocal(c.full), shard.NewLocal(c.full)}, replica.DefaultConfig())
	if err != nil {
		return err
	}
	n1 := lb.sharded(shard.NewLocal(c.full))
	srvMiss, gwMiss, err := lb.front(n1, 0)
	if err != nil {
		return err
	}
	srvHit, gwHit, err := lb.front(n1, 4096)
	if err != nil {
		return err
	}
	disk := func(blockCache int) (*core.LiveDetector, error) {
		dir, err := os.MkdirTemp(e.workDir, "spill-")
		if err != nil {
			return nil, err
		}
		cfg := shardCfg
		cfg.SpillDir, cfg.SpillBlockCache = dir, blockCache
		idx := lb.index(pipe.Corpus, e.take(diskCorpus), cfg)
		if st := idx.Stats(); st.DiskSegments == 0 || st.SpillErrors != 0 {
			return nil, fmt.Errorf("bench: disk seam did not spill: %+v", st)
		}
		return core.NewLiveDetector(pipe.Collection, idx, e.online), nil
	}
	diskHot, err := disk(0)
	if err != nil {
		return err
	}
	diskCold, err := disk(-1)
	if err != nil {
		return err
	}
	// The write seams draw from a stream of their own, so that they never
	// re-ingest a post the corpora already hold.
	fresh := microblog.NewPostStream(pipe.World, microblog.DefaultStreamConfig(uint64(e.seed)+1))
	written := lb.index(pipe.Corpus, e.take(writeCorpus), shardCfg)
	afterWrite := core.NewLiveDetector(pipe.Collection, written, e.online)
	appended := lb.index(pipe.Corpus, e.take(writeCorpus), shardCfg)
	const batch = 8 // the mixed workload's write size
	posts8 := make([]microblog.Post, batch)
	spillDir, err := os.MkdirTemp(e.workDir, "spill-")
	if err != nil {
		return err
	}
	var spilling *ingest.Index
	lb.closers = append(lb.closers, func() {
		if spilling != nil {
			spilling.Close()
		}
	})
	np := len(pool)
	seams := []seam{
		{name: "core.frozen", n: np, div: 1, op: search(c.frozen.Search)},
		{name: "ingest.live", n: np, div: 1, op: search(core.NewLiveDetector(pipe.Collection, c.full, e.online).Search)},
		{name: "shard.local_n1", n: np, div: 1, op: search(n1.Search)},
		{name: "shard.local_n2", n: np, div: 1, op: search(lb.sharded(shard.NewLocal(c.halves[0]), shard.NewLocal(c.halves[1])).Search)},
		{name: "transport.remote_n1", n: np, div: 1, op: search(lb.sharded(remoteFull).Search)},
		{name: "replica.n1r2", n: np, div: 1, op: search(lb.sharded(replicated).Search)},
		{name: "serve.miss", n: np, div: 1, op: func(q int) { srvMiss.Search(pool[q]) }},
		{name: "serve.hit", n: np, div: 1, op: func(q int) { srvHit.Search(pool[q]) }},
		{name: "gateway.miss", n: np, div: 1, op: func(q int) { gwMiss.do(e.bodies[q]) }},
		{name: "gateway.hit", n: np, div: 1, op: func(q int) { gwHit.do(e.bodies[q]) }},
		{name: "diskseg.hot", n: np, div: 1, op: search(diskHot.Search)},
		{name: "diskseg.cold", n: np, div: 1, op: search(diskCold.Search)},
		{name: "ingest.after_write", n: np, div: 1,
			prep: func(int) { written.Ingest(fresh.Next()) },
			op:   search(afterWrite.Search)},
		{name: "ingest.post", n: np, div: batch,
			prep: func(int) {
				for i := range posts8 {
					posts8[i] = fresh.Next()
				}
			},
			op: func(int) { appended.IngestBatch(posts8) }},
		{name: "diskseg.spill", n: 1, div: spillPosts,
			// One sealed segment exactly at the threshold, compactor
			// off: the timed Quiesce is one spill and nothing else.
			prep: func(int) {
				if spilling != nil {
					spilling.Close()
				}
				spilling = ingest.New(pipe.Corpus, ingest.Config{SealThreshold: spillPosts, CompactFanIn: 4,
					DisableCompactor: true, SpillDir: spillDir, SpillThreshold: spillPosts})
				for i := 0; i < spillPosts; i++ {
					spilling.Ingest(fresh.Next())
				}
			},
			op: func(int) { spilling.Quiesce() }},
	}
	for _, s := range seams {
		us, allocs := s.measure(passes)
		per := ""
		if s.name == "diskseg.spill" {
			per = "_per_post"
		}
		res.layers[s.name+"_us"+per] = value{Value: us, Unit: "us"}
		res.layers[s.name+"_allocs"+per] = value{Value: allocs, Unit: "1"}
	}
	if st := spilling.Stats(); st.Spills != 1 {
		return fmt.Errorf("bench: spill seam: want exactly one spill per op, got %+v", st)
	}
	return nil
}
