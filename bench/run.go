package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/transport"
)

// env is everything a run needs that does not depend on the topology:
// the harness's own copy of the deterministic pipeline (the reference
// the answers are checked against, and the source of the query pool and
// the post stream), the pre-serialised requests, and the generated
// posts. The programs under test see none of it — only the inputs made
// from it.
type env struct {
	binDir  string
	workDir string // per-run scratch (disk-tier data dirs), removed at exit
	seed    int64
	clients int

	pipe     *core.Pipeline
	online   core.OnlineConfig
	pool     []string
	bodies   [][]byte // JSON request body per pool query
	requests [][]byte // the same, framed as a whole HTTP request
	stream   *microblog.PostStream
	posts    []microblog.Post // the head of the seeded stream drawn so far
}

// newEnv builds the harness side of a run: the pipeline and the query
// pool.
func newEnv(binDir, workDir string, seed int64) (*env, error) {
	pipe, err := core.BuildPipeline(core.TinyPipelineConfig())
	if err != nil {
		return nil, err
	}
	e := &env{binDir: binDir, workDir: workDir, seed: seed, clients: runtime.NumCPU(), pipe: pipe}
	e.online = pipe.Cfg.Online
	e.online.MatchWorkers = 1 // as both binaries configure it
	// The pool is the union of the six evaluation query sets.
	seen := make(map[string]bool)
	for _, set := range eval.BuildQuerySets(pipe.World, pipe.Log, eval.SetSizes{PerCategory: 25, Top: 60}) {
		for _, q := range set.Queries {
			if !seen[q] {
				seen[q] = true
				body, err := json.Marshal(struct {
					Query string `json:"query"`
				}{q})
				if err != nil {
					return nil, err
				}
				e.pool = append(e.pool, q)
				e.bodies = append(e.bodies, body)
				e.requests = append(e.requests, requestBytes(body))
			}
		}
	}
	return e, nil
}

// take returns the first n posts of the seeded stream.
func (e *env) take(n int) []microblog.Post {
	if e.stream == nil {
		e.stream = microblog.NewPostStream(e.pipe.World, microblog.DefaultStreamConfig(uint64(e.seed)))
	}
	for len(e.posts) < n {
		e.posts = append(e.posts, e.stream.Next())
	}
	return e.posts[:n]
}

// preloadParts deals the head of the stream to w's shards by author,
// exactly w.preload/w.shards posts each (a post whose shard is already
// full is skipped), and returns the per-shard batches and how many
// stream posts that consumed.
func (e *env) preloadParts(w *workload) (parts [][]microblog.Post, used int) {
	parts = make([][]microblog.Post, w.shards)
	quota := w.preload / w.shards
	for full := 0; full < w.shards; used++ {
		p := e.take(used + 1)[used]
		si := shard.ShardOf(p.Author, w.shards)
		if len(parts[si]) == quota {
			continue
		}
		if parts[si] = append(parts[si], p); len(parts[si]) == quota {
			full++
		}
	}
	return parts, used
}

// deployment is one booted topology: a gateway in front of shardd
// processes, plus the harness's own connections into it.
type deployment struct {
	w        *workload
	gateway  *child
	shardds  []*child
	gwAddr   string
	gwAdmin  string
	shAdmins []string
	// remotes are the harness's own per-shard clients: preload, quiesce
	// and the post dump of the answer check go through them.
	remotes []*transport.RemoteShard
	// writeBase is the stream index of the first post the measured
	// writes draw (everything before it was dealt to the preload).
	writeBase int
	// writers are the mixed workload's per-client write connections.
	writers []*transport.RemoteShard
	conns   []*httpConn
}

var (
	reShardAdmin = regexp.MustCompile(`shardd: admin plane on http://(\S+)`)
	reShardAddr  = regexp.MustCompile(`shardd: shard \d+/\d+ on (\S+)`)
	reGwAdmin    = regexp.MustCompile(`gateway: admin plane on http://(\S+)`)
	reGwAddr     = regexp.MustCompile(`gateway: serving on http://(\S+)`)
)

// children lists every supervised process, gateway first.
func (d *deployment) children() []*child {
	var cs []*child
	if d.gateway != nil {
		cs = append(cs, d.gateway)
	}
	return append(cs, d.shardds...)
}

// alive fails with the log tail of the first child that has died.
func (d *deployment) alive() error {
	for _, c := range d.children() {
		if c.exited() {
			return c.failure("died mid-run: %v", c.waitErr)
		}
	}
	return nil
}

// explain appends what the children logged to an error that came from
// talking to them: a refused connection says nothing, the panic in the
// shardd's log does.
func (d *deployment) explain(err error) error {
	time.Sleep(100 * time.Millisecond) // let a dying child finish dying
	for _, c := range d.children() {
		state := "running"
		if c.exited() {
			state = fmt.Sprintf("exited: %v", c.waitErr)
		}
		err = fmt.Errorf("%w\n--- %s (pid %d, %s) log tail ---\n%s", err, c.name, c.pid(), state, c.log.tail(30))
	}
	return err
}

// boot starts the topology on ephemeral ports, connects the harness's
// clients and preloads the posts; on error nothing is left running.
func (e *env) boot(w *workload, parts [][]microblog.Post, writeBase int) (d *deployment, err error) {
	d = &deployment{w: w, writeBase: writeBase}
	defer func() {
		if err != nil {
			err = d.explain(err)
			d.destroy()
		}
	}()
	shAddrs := make([]string, w.shards)
	for i := 0; i < w.shards; i++ {
		args := []string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
			"-shard", strconv.Itoa(i), "-of", strconv.Itoa(w.shards)}
		if w.disk {
			dir, err := os.MkdirTemp(e.workDir, "data-")
			if err != nil {
				return d, err
			}
			args = append(args, "-data-dir", dir)
		}
		c, err := startChild(fmt.Sprintf("shardd[%d]", i), filepath.Join(e.binDir, "shardd"), args...)
		if err != nil {
			return d, err
		}
		d.shardds = append(d.shardds, c)
	}
	for i, c := range d.shardds {
		admin, err := c.awaitBanner(reShardAdmin)
		if err != nil {
			return d, err
		}
		d.shAdmins = append(d.shAdmins, admin)
		if shAddrs[i], err = c.awaitBanner(reShardAddr); err != nil {
			return d, err
		}
	}
	// The budget is raised to its ceiling so that a scheduling hiccup on
	// a loaded sandbox cannot turn into a 504: no operation may fail.
	d.gateway, err = startChild("gateway", filepath.Join(e.binDir, "gateway"),
		"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-remote", strings.Join(shAddrs, ","),
		"-cache", strconv.Itoa(w.cache), "-budget-ms", "10000")
	if err != nil {
		return d, err
	}
	if d.gwAdmin, err = d.gateway.awaitBanner(reGwAdmin); err != nil {
		return d, err
	}
	if d.gwAddr, err = d.gateway.awaitBanner(reGwAddr); err != nil {
		return d, err
	}

	// Dial + handshake: the handshake proves each shardd serves the
	// partition the harness's identical pipeline expects.
	partSize := make([]int, w.shards)
	for _, tw := range e.pipe.Corpus.Tweets() {
		partSize[shard.ShardOf(tw.Author, w.shards)]++
	}
	dial := func(i int) (*transport.RemoteShard, error) {
		ccfg := transport.DefaultClientConfig()
		ccfg.Timeout = 10 * time.Second // a preload frame on a busy box; quiesce gets 10×
		r := transport.NewRemoteShard(shAddrs[i], ccfg)
		if err := r.Handshake(i, w.shards, len(e.pipe.World.Users), partSize[i]); err != nil {
			r.Close()
			return nil, err
		}
		return r, nil
	}
	for i := 0; i < w.shards; i++ {
		r, err := dial(i)
		if err != nil {
			return d, err
		}
		d.remotes = append(d.remotes, r)
	}
	for c := 0; c < e.clients; c++ {
		if w.writeBatch > 0 {
			r, err := dial(0)
			if err != nil {
				return d, err
			}
			d.writers = append(d.writers, r)
		}
		conn, err := dialHTTP(d.gwAddr)
		if err != nil {
			return d, err
		}
		d.conns = append(d.conns, conn)
	}

	// Preload: each shard's posts go to it in stream order as one batch
	// (the client frames it 512 posts at a time). shard.Cluster's own
	// IngestBatch would cut the stream at every change of owner — two
	// posts per round trip at N=2 — which measures the router, not the
	// set-up.
	for i, r := range d.remotes {
		if err := r.IngestBatch(parts[i]); err != nil {
			return d, fmt.Errorf("bench: preload shard %d: %w", i, err)
		}
	}
	if err := d.quiesce(); err != nil {
		return d, err
	}
	return d, d.alive()
}

// compactorBusy reports whether a goroutine dump of a shardd
// (/debug/pprof/goroutine?debug=1) shows a compaction or a spill in
// progress.
func compactorBusy(goroutines []byte) bool {
	return bytes.Contains(goroutines, []byte("ingest.(*Index).compactOnce")) ||
		bytes.Contains(goroutines, []byte("ingest.(*Index).spillOnce"))
}

// awaitCompactorIdle returns once the shardd's background compactor has
// nothing left to do: two looks 10 ms apart find no goroutine inside a
// compaction or a spill (two, because a compactor woken by the last
// seal may not have been scheduled yet at the first).
//
// OpQuiesce runs the same merges on the handler's goroutine, and at this
// commit two compactions at once are not safe on the disk tier: both
// pick the same run of segments, the loser of the splice still reads
// files the winner has unmapped, and the shardd dies with SIGSEGV in
// diskseg.decodeTweetBlock about once in 100–250 preloads of 80k posts
// (README.md, Known defect). The harness therefore never asks for a
// quiesce while the compactor runs; a child that dies anyway fails the
// run.
func awaitCompactorIdle(admin string) error {
	deadline := time.Now().Add(quiesceTimeout)
	for idle := 0; ; time.Sleep(10 * time.Millisecond) {
		dump, err := adminGet(admin, "/debug/pprof/goroutine?debug=1")
		if err != nil {
			return err
		}
		if compactorBusy(dump) {
			idle = 0
		} else if idle++; idle == 2 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("compactor still busy after %v", quiesceTimeout)
		}
	}
}

// quiesce drains every shardd's pending compactions (and spills): the
// background compactor is left to finish, then OpQuiesce confirms that
// nothing is eligible any more.
func (d *deployment) quiesce() error {
	for i, r := range d.remotes {
		if err := awaitCompactorIdle(d.shAdmins[i]); err != nil {
			return fmt.Errorf("bench: quiesce shard %d: %w", i, err)
		}
		if err := r.Quiesce(); err != nil {
			return fmt.Errorf("bench: quiesce shard %d: %w", i, err)
		}
	}
	return nil
}

// closeClients releases every harness-side connection.
func (d *deployment) closeClients() {
	for _, c := range d.conns {
		c.Close()
	}
	for _, r := range d.writers {
		r.Close()
	}
	for _, r := range d.remotes {
		r.Close()
	}
}

// shutdown is the verified exit path: the gateway first (it holds
// connections and push subscriptions into the shardds), then every
// shardd, each checked for a clean SIGTERM drain.
func (d *deployment) shutdown() error {
	d.closeClients()
	var first error
	for _, c := range d.children() {
		if err := c.drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// destroy is the unconditional exit path: kill everything, wait.
func (d *deployment) destroy() {
	d.closeClients()
	for _, c := range d.children() {
		c.kill()
	}
}

// roundResult is what one round of closed-loop load produced.
type roundResult struct {
	wall      time.Duration
	latencies []int64 // ns, one per answered search
	attempted int     // searches + ingest batches
	answered  int     // searches answered 200 (and, when checked, correct)
	failed    int
	ingestRTT []int64 // ns, one per acknowledged ingest batch
	firstErr  error
}

// runRound drives round r (0 is the warm-up) of plan p: every client
// replays its op sequence on its own persistent connection, closed
// loop. golden, when non-nil, is the reference body of every pool
// query; an answer that differs from it is a failed operation.
func (e *env) runRound(d *deployment, p *plan, r int, golden [][]byte) roundResult {
	parts := make([]roundResult, p.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runClient(d, p, r, c, golden, &parts[c])
		}()
	}
	wg.Wait()
	res := roundResult{wall: time.Since(start)}
	for _, part := range parts {
		res.latencies = append(res.latencies, part.latencies...)
		res.ingestRTT = append(res.ingestRTT, part.ingestRTT...)
		res.attempted += part.attempted
		res.answered += part.answered
		res.failed += part.failed
		if res.firstErr == nil {
			res.firstErr = part.firstErr
		}
	}
	return res
}

func (e *env) runClient(d *deployment, p *plan, r, c int, golden [][]byte, res *roundResult) {
	nOps, cycles := p.roundShape(r, c)
	ops := p.ops[c][:nOps]
	res.latencies = make([]int64, 0, len(ops))
	conn := d.conns[c]
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	search := func(q int) {
		res.attempted++
		t0 := time.Now()
		status, body, err := conn.do(e.requests[q])
		lat := time.Since(t0)
		switch {
		case err != nil:
			fail(fmt.Errorf("search %q: %w", e.pool[q], err))
			// The connection's framing is lost; continue on a fresh one.
			conn.Close()
			if fresh, derr := dialHTTP(d.gwAddr); derr == nil {
				conn, d.conns[c] = fresh, fresh
			}
		case status != 200:
			fail(fmt.Errorf("search %q: status %d: %s", e.pool[q], status, bytes.TrimSpace(body)))
		case golden != nil && !bytes.Equal(body, golden[q]):
			fail(fmt.Errorf("search %q: answer differs from the reference", e.pool[q]))
		default:
			res.answered++
			res.latencies = append(res.latencies, lat.Nanoseconds())
		}
	}
	if cycles == 0 {
		for _, q := range ops {
			search(q)
		}
		return
	}
	w := d.w
	// The writes of (round, cycle, client) are a fixed slice of the
	// seeded stream, so every run of one seed ingests the same posts at
	// the same point of every client's sequence.
	first := p.batchIndex(r, c, 0)
	for k := 0; k < cycles; k++ {
		at := d.writeBase + (first+k)*w.writeBatch
		res.attempted++
		t0 := time.Now()
		if err := d.writers[c].IngestBatch(e.posts[at : at+w.writeBatch]); err != nil {
			fail(fmt.Errorf("ingest batch: %w", err))
		} else {
			res.ingestRTT = append(res.ingestRTT, time.Since(t0).Nanoseconds())
		}
		for _, q := range ops[k*w.searchesPerCycle : (k+1)*w.searchesPerCycle] {
			search(q)
		}
	}
}

// envelope is the part of the gateway's search response the answer
// check reads; the experts are kept as the bytes that were sent.
type envelope struct {
	Experts json.RawMessage `json:"experts"`
}

// checkAnswers quiesces the deployment, pages back exactly the posts
// the shardds hold, rebuilds a cold single-node detector over base +
// those posts, and demands that every pool query's experts JSON from
// the gateway is byte-identical to the rebuild's. It returns the
// response bodies (the reference for in-round comparison) and the
// number of mismatching queries.
func (e *env) checkAnswers(d *deployment) (golden [][]byte, mismatches int, err error) {
	if err := d.quiesce(); err != nil {
		return nil, 0, err
	}
	var held []microblog.Post
	for _, r := range d.remotes {
		posts, err := r.DumpIngested()
		if err != nil {
			return nil, 0, fmt.Errorf("bench: dump ingested: %w", err)
		}
		held = append(held, posts...)
	}
	cold := core.NewDetector(e.pipe.Collection, e.pipe.Corpus.ExtendedWith(held), e.online)
	// Every client connection takes its share of the pool: on the disk
	// tier one pass is seconds of shardd CPU, and two cores halve it.
	golden = make([][]byte, len(e.pool))
	errs := make([]error, len(d.conns))
	bad := make([]int, len(d.conns))
	var wg sync.WaitGroup
	for c, conn := range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := c; q < len(e.pool) && errs[c] == nil; q += len(d.conns) {
				var same bool
				golden[q], same, errs[c] = e.checkQuery(conn, cold, q)
				if !same {
					bad[c]++
				}
			}
		}()
	}
	wg.Wait()
	for c := range d.conns {
		if errs[c] != nil {
			return nil, 0, errs[c]
		}
		mismatches += bad[c]
	}
	return golden, mismatches, nil
}

// expectedExperts is the experts JSON a correct gateway sends for
// query: the reference detector's ranking, never null.
func expectedExperts(ref *core.Detector, query string) []byte {
	experts, _ := ref.Search(query)
	if experts == nil {
		experts = []expertise.Expert{} // the gateway never sends null
	}
	want, err := json.Marshal(experts)
	if err != nil {
		panic(err) // a slice of plain structs always marshals
	}
	return want
}

// sameExperts reports whether a search response body carries exactly
// the expected experts bytes.
func sameExperts(body, want []byte) (bool, error) {
	var got envelope
	if err := json.Unmarshal(body, &got); err != nil {
		return false, err
	}
	return bytes.Equal(got.Experts, want), nil
}

// checkQuery asks the gateway for pool query q and compares the experts
// it sent, byte for byte, with the cold detector's.
func (e *env) checkQuery(conn *httpConn, cold *core.Detector, q int) (body []byte, same bool, err error) {
	query := e.pool[q]
	status, body, err := conn.do(e.requests[q])
	if err != nil {
		return nil, false, fmt.Errorf("bench: answer check %q: %w", query, err)
	}
	if status != 200 {
		return nil, false, fmt.Errorf("bench: answer check %q: status %d: %s", query, status, bytes.TrimSpace(body))
	}
	want := expectedExperts(cold, query)
	same, err = sameExperts(body, want)
	if err != nil {
		return nil, false, fmt.Errorf("bench: answer check %q: %w", query, err)
	}
	if !same {
		fmt.Fprintf(os.Stderr, "bench: answer mismatch for %q:\n  got  %s\n  want %s\n", query, bytes.TrimSpace(body), want)
	}
	return append([]byte(nil), body...), same, nil
}

// cpuSample is consumed CPU, in ms, of every child (gateway first) and
// of the harness itself.
type cpuSample struct {
	children []float64
	self     float64
}

func (d *deployment) sampleCPU() (cpuSample, error) {
	var s cpuSample
	for _, c := range d.children() {
		ms, err := cpuMillis(c.pid())
		if err != nil {
			return s, c.failure("read cpu: %v", err)
		}
		s.children = append(s.children, ms)
	}
	var err error
	s.self, err = cpuMillis(os.Getpid())
	return s, err
}

// sampleAll scrapes every child's heap accounting and counters,
// gateway first.
func (d *deployment) sampleAll() ([]procSample, error) {
	admins := append([]string{d.gwAdmin}, d.shAdmins...)
	out := make([]procSample, len(admins))
	for i, a := range admins {
		s, err := sampleProc(a)
		if err != nil {
			return nil, fmt.Errorf("bench: scrape %s: %w", d.children()[i].name, err)
		}
		out[i] = s
	}
	return out, nil
}

// lap prints where a run's wall time goes, phase by phase.
type lap struct{ last time.Time }

func (l *lap) mark(phase string) {
	fmt.Printf("# time %-15s %6.2fs\n", phase, time.Since(l.last).Seconds())
	l.last = time.Now()
}

// setUp boots and preloads the deployment repeats times, each ending
// with the warm-up round, and keeps the last one running. It returns
// the set-up times in seconds.
func (e *env) setUp(w *workload, p *plan, repeats int, l *lap) (d *deployment, setups []float64, err error) {
	// Every post of the run is drawn before the first process starts:
	// the preload, then one slice of the stream per ingest batch.
	parts, writeBase := e.preloadParts(w)
	e.take(writeBase + p.batchIndex(measuredRounds+1, 0, 0)*w.writeBatch)
	for len(setups) < repeats {
		var seconds float64
		d, seconds, err = e.oneSetUp(w, p, parts, writeBase, len(setups) == repeats-1)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, seconds)
		l.mark("set-up")
	}
	return d, setups, nil
}

// oneSetUp boots and preloads one deployment, runs the warm-up round
// and times the whole. Unless it is the run's last set-up the
// deployment is shut down again (drain verified); the last one is
// returned running.
func (e *env) oneSetUp(w *workload, p *plan, parts [][]microblog.Post, writeBase int, last bool) (*deployment, float64, error) {
	t0 := time.Now()
	d, err := e.boot(w, parts, writeBase)
	if err != nil {
		return nil, 0, err
	}
	warm := e.runRound(d, p, 0, nil)
	seconds := time.Since(t0).Seconds()
	if warm.failed > 0 {
		err := d.explain(fmt.Errorf("bench: %d of %d warm-up operations failed, first: %w", warm.failed, warm.attempted, warm.firstErr))
		d.destroy()
		return nil, 0, err
	}
	if last {
		return d, seconds, nil
	}
	if err := d.shutdown(); err != nil {
		d.destroy()
		return nil, 0, err
	}
	return nil, seconds, nil
}

// runWorkload is one complete run: the set-ups, answer check, measured
// rounds, answer check, verified shutdown.
func (e *env) runWorkload(w *workload, p *plan, repeats int) (*result, error) {
	l := &lap{last: time.Now()}
	d, setups, err := e.setUp(w, p, repeats, l)
	if err != nil {
		return nil, err
	}
	defer d.destroy()
	m := &measurement{setups: setups}

	golden, mismatches, err := e.checkAnswers(d)
	if err != nil {
		return nil, d.explain(err)
	}
	if !w.quiesced() {
		golden = nil // content moves under the searches; only the final state is checkable
	}
	l.mark("answer check")

	if m.before, err = d.sampleAll(); err != nil {
		return nil, err
	}
	for r := 1; r <= measuredRounds; r++ {
		c0, err := d.sampleCPU()
		if err != nil {
			return nil, err
		}
		res := e.runRound(d, p, r, golden)
		c1, err := d.sampleCPU()
		if err != nil {
			return nil, err
		}
		if err := d.alive(); err != nil {
			return nil, err
		}
		if res.answered == 0 {
			return nil, fmt.Errorf("bench: round %d answered nothing, first error: %w", r, res.firstErr)
		}
		m.addRound(res, c0, c1)
	}
	if m.after, err = d.sampleAll(); err != nil {
		return nil, err
	}
	l.mark("measured rounds")
	fmt.Printf("# rounds qps %s\n# rounds cpu_ms_per_query %s\n", fmtRounds(m.qps), fmtRounds(m.perRoundSum(0, len(m.childCPU))))

	// The answer check again, over whatever the run left behind (for
	// the mixed workload: base + preload + every acknowledged write).
	_, mismatchesAfter, err := e.checkAnswers(d)
	if err != nil {
		return nil, d.explain(err)
	}
	mismatches += mismatchesAfter
	m.failed += mismatches
	l.mark("answer check")
	stats, err := adminGet(d.gwAdmin, "/stats")
	if err != nil {
		return nil, err
	}
	deg, err := parseGatewayStats(stats)
	if err != nil {
		return nil, err
	}
	if deg.PartialResults != 0 || deg.ShardErrors != 0 {
		return nil, d.gateway.failure("served %d partial results (%d shard errors): those answers were wrong", deg.PartialResults, deg.ShardErrors)
	}
	if ok := m.after[0].metrics["gateway_ok"] - m.before[0].metrics["gateway_ok"]; int(ok) != m.answered {
		return nil, d.gateway.failure("gateway counted %d OK searches over the measured rounds, the load generator %d", ok, m.answered)
	}
	for _, c := range d.children() {
		kib, err := peakRSSKiB(c.pid())
		if err != nil {
			return nil, c.failure("read peak rss: %v", err)
		}
		m.rssKiB += kib
	}
	if err := d.shutdown(); err != nil {
		return nil, err
	}
	l.mark("shutdown")

	res := m.result()
	if m.failed > 0 {
		if m.firstErr == nil {
			m.firstErr = fmt.Errorf("%d answer mismatches against the cold rebuild", mismatches)
		}
		return res, fmt.Errorf("bench: %s: %d of %d operations failed, first: %w", w.name, m.failed, m.attempted, m.firstErr)
	}
	return res, nil
}
