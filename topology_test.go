// The topology matrix: the equivalence spine over every layout the
// served system can take. Each row wires one topology through
// internal/topology — the builder cmd/gateway serves with — drives a
// concurrent mixed load through serve.Server, quiesces, and requires
// every evaluation query to rank bit-identically to a cold Detector
// over base + the acknowledged posts, itself held to the independent
// reference of equivalence_test.go. Loopback ShardServers and fault
// wrappers are test equipment and stay here; the builder only ever
// sees addresses.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/fault"
	"repro/internal/gateway"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/transport"
)

// load is one mixed read/write run: writers each stream perWriter
// posts from their own seeded PostStream (seed+w), one post per batch,
// while searchers each issue perSearcher requests over the query pool.
type load struct {
	writers, perWriter     int
	seed                   uint64
	searchers, perSearcher int
}

// runMixedLoad drives srv and writes to c concurrently as l describes
// and returns the posts whose write was acknowledged, writer by writer.
// midway, when non-nil, runs once on writer 0 after it has sent half
// its posts, while the other writers and every searcher keep going.
func runMixedLoad(p *core.Pipeline, srv *serve.Server, c *shard.Cluster, pool []string, l load, midway func()) []microblog.Post {
	acked := make([][]microblog.Post, l.writers)
	var wg sync.WaitGroup
	for k := 0; k < l.writers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(l.seed+uint64(k)))
			for i := 0; i < l.perWriter; i++ {
				if k == 0 && i == l.perWriter/2 && midway != nil {
					midway()
				}
				post := stream.Next()
				if c.IngestBatch([]microblog.Post{post}) == nil {
					acked[k] = append(acked[k], post)
				}
			}
		}(k)
	}
	for g := 0; g < l.searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < l.perSearcher; i++ {
				srv.Search(pool[(g*l.perSearcher+i)%len(pool)])
			}
		}(g)
	}
	wg.Wait()
	var all []microblog.Post
	for _, posts := range acked {
		all = append(all, posts...)
	}
	return all
}

// evalPool flattens every evaluation query set into one load pool.
func evalPool(sets []eval.QuerySet) []string {
	var pool []string
	for _, set := range sets {
		pool = append(pool, set.Queries...)
	}
	return pool
}

var (
	coldMu sync.Mutex
	colds  = map[uint64]*core.Detector{}
)

// coldFor returns the cold Detector over base + posts. Every ranking
// input is an order-independent integer sum, so the post multiset
// determines it; the first time a multiset is seen, its detector is
// held to the independent reference.
func coldFor(t *testing.T, posts []microblog.Post) *core.Detector {
	t.Helper()
	p, sets := eqState(t)
	var key uint64
	for _, post := range posts {
		h := fnv.New64a()
		fmt.Fprint(h, post.Author, post.Text, post.Mentions, post.RetweetCount, post.Topic)
		key += h.Sum64()
	}
	key = key*31 + uint64(len(posts))
	coldMu.Lock()
	defer coldMu.Unlock()
	if cold, ok := colds[key]; ok {
		return cold
	}
	corpus := p.Corpus.ExtendedWith(posts)
	cold := core.NewDetector(p.Collection, corpus, p.Cfg.Online)
	requireReference(t, cold, corpus, sets)
	colds[key] = cold
	return cold
}

// oneTermQuery is an evaluation query that expands to nothing: its e#
// search scatters the query alone, the one-term match every other
// query's expansion hides.
const oneTermQuery = "ceanai holdings today"

// requireCold is the spine step every row ends with: for every
// evaluation query, oneTermQuery among them, the quiesced deployment's
// e# ranking and matched-tweet count equal cold's, and no query — load
// or check — was answered with a shard missing.
func requireCold(t *testing.T, det *core.ShardedLiveDetector, cold *core.Detector, sets []eval.QuerySet) {
	t.Helper()
	oneTerm := false
	for _, set := range sets {
		for _, q := range set.Queries {
			got, gotTrace := det.Search(q)
			want, wantTrace := cold.Search(q)
			expertsEqual(t, "esharp", q, got, want)
			if gotTrace.MatchedTweets != wantTrace.MatchedTweets {
				t.Fatalf("esharp %q: matched %d tweets, cold %d", q, gotTrace.MatchedTweets, wantTrace.MatchedTweets)
			}
			if q == oneTermQuery && len(gotTrace.Expansion) == 0 && len(want) > 0 {
				oneTerm = true
			}
		}
	}
	if !oneTerm {
		t.Fatalf("%q was not compared as a one-term search with experts", oneTermQuery)
	}
	if pq, se := det.PartialStats(); pq != 0 || se != 0 {
		t.Fatalf("%d partial queries, %d shard errors", pq, se)
	}
}

// rig is one wired topology: its cluster, the loopback server of every
// remote member (servers[i][j], nil for an in-process member), the
// index of every member, in-process or behind a server, and the spill
// directory handed to the builder ("" without a disk tier).
type rig struct {
	cluster  *shard.Cluster
	servers  [][]*transport.ShardServer
	indexes  []*ingest.Index
	spillDir string
}

// wire builds a topology whose shards list their members primary
// first, each in-process (false) or behind a loopback ShardServer
// (true), through topology.Build; with spill every member gets a disk
// tier. Teardown is registered on t.
func wire(t *testing.T, layout [][]bool, spill bool) *rig {
	t.Helper()
	p, _ := eqState(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	var remoteDir string
	if spill {
		icfg.SpillDir, icfg.SpillThreshold = t.TempDir(), 64
		remoteDir = t.TempDir()
	}
	n := len(layout)
	r := &rig{servers: make([][]*transport.ShardServer, n), spillDir: icfg.SpillDir}
	topo := make(topology.Topology, n)
	for i, members := range layout {
		r.servers[i] = make([]*transport.ShardServer, len(members))
		topo[i] = make([]topology.Member, len(members))
		for j, loopback := range members {
			if !loopback {
				continue
			}
			cfg := icfg
			if spill {
				cfg.SpillDir = filepath.Join(remoteDir, fmt.Sprintf("shard-%d-member-%d", i, j))
			}
			idx := ingest.New(shard.Partition(p.Corpus, i, n), cfg)
			srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(i, n))
			if err != nil {
				t.Fatal(err)
			}
			onTeardown(t, func() {
				srv.Close()
				idx.Close()
			})
			r.servers[i][j] = srv
			topo[i][j] = topology.Member{Addr: srv.Addr().String()}
		}
	}
	c, err := topo.Build(p.World, p.Artifact().BaseCounts, p.Corpus.Tweets(), icfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	onTeardown(t, func() { c.Close() })
	r.cluster = c
	for i := 0; i < n; i++ {
		members := []shard.Backend{c.Backend(i)}
		if set, ok := members[0].(*replica.Set); ok {
			members = members[:0]
			for j := 0; j < set.NumReplicas(); j++ {
				members = append(members, set.Replica(j))
			}
		}
		for j, m := range members {
			if local, ok := m.(*shard.Local); ok {
				r.indexes = append(r.indexes, local.Index())
			} else {
				r.indexes = append(r.indexes, r.servers[i][j].Index())
			}
		}
	}
	return r
}

// onTeardown runs stop when t ends and then drops it. The testing
// package keeps a test's run cleanups reachable, and a closed index
// keeps its segment files open until it is garbage — so a cleanup that
// held on to it would read as a file-descriptor leak.
func onTeardown(t *testing.T, stop func()) {
	t.Cleanup(func() {
		stop()
		stop = nil
	})
}

// layout helpers: n shards of members in-process (local), all behind
// loopback (loopback), or a local primary with r-1 loopback followers.
func local(n int) [][]bool {
	return followers(n, 1)
}

func loopback(n int) [][]bool {
	l := make([][]bool, n)
	for i := range l {
		l[i] = []bool{true}
	}
	return l
}

func followers(n, r int) [][]bool {
	l := make([][]bool, n)
	for i := range l {
		l[i] = make([]bool, r)
		for j := 1; j < r; j++ {
			l[i][j] = true
		}
	}
	return l
}

// deployment is what a row hands the matrix runner.
type deployment struct {
	rig *rig
	// midway runs once mid-load (see runMixedLoad).
	midway func()
	// checks are the row's own assertions, run after the spine step.
	checks []check
}

// check is one row assertion over the quiesced deployment and the
// acknowledged posts.
type check func(t *testing.T, det *core.ShardedLiveDetector, srv *serve.Server, posts []microblog.Post)

// matrixLoad is the load every row runs: 400 posts and 240 searches.
var matrixLoad = load{writers: 2, perWriter: 200, seed: 8100, searchers: 4, perSearcher: 60}

// TestTopologyMatrix is the equivalence spine over every deployment
// axis at once: in-process, loopback and mixed shard sets, replicas
// behind loopback (one set losing its followers mid-load), the disk
// tier and the HTTP front door. Every row quiesces to the
// cold rebuild, bit for bit, with no partial result, and leaves no
// goroutine or file descriptor behind.
func TestTopologyMatrix(t *testing.T) {
	rows := []struct {
		name   string
		deploy func(t *testing.T) deployment
	}{
		{"inproc-N1", func(t *testing.T) deployment {
			r := wire(t, local(1), false)
			return deployment{rig: r, checks: []check{exercisedWritePath(r)}}
		}},
		{"inproc-N2", inProcess(2)},
		{"inproc-N4", inProcess(4)},
		{"inproc-N1-spill", spilling(local(1))},
		{"inproc-N2-spill", spilling(local(2))},
		{"loopback-N1", loopbacks(1)},
		{"loopback-N2", loopbacks(2)},
		{"loopback-N4", loopbacks(4)},
		{"mixed-2local-2loopback", func(t *testing.T) deployment {
			return deployment{rig: wire(t, [][]bool{{false}, {true}, {false}, {true}}, false)}
		}},
		{"replicated-N1R2", replicated(1, 2)},
		{"replicated-N2R2", replicated(2, 2)},
		{"replicated-N2R3", replicated(2, 3)},
		{"replicated-N2R2-follower-killed", followerKilled},
		{"replicated-N2R2-spill", func(t *testing.T) deployment {
			r := wire(t, followers(2, 2), true)
			return deployment{rig: r, checks: []check{spilled(r), replicasInSync(r)}}
		}},
		{"gateway-N2", func(t *testing.T) deployment {
			return deployment{rig: wire(t, local(2), false), checks: []check{answeredOverHTTP}}
		}},
	}
	_, sets := eqState(t)
	pool := evalPool(sets)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fault.CheckLeaks(t)
			p, _ := eqState(t)
			d := row.deploy(t)
			det := core.NewShardedLiveDetectorOver(p.Collection, d.rig.cluster, p.Cfg.Online)
			srv := serve.New(det, serve.DefaultConfig())

			posts := runMixedLoad(p, srv, d.rig.cluster, pool, matrixLoad, d.midway)
			if want := matrixLoad.writers * matrixLoad.perWriter; len(posts) != want {
				t.Fatalf("%d of %d writes acknowledged", len(posts), want)
			}
			if err := d.rig.cluster.Quiesce(); err != nil {
				t.Fatal(err)
			}
			requireCold(t, det, coldFor(t, posts), sets)
			if ev := srv.Stats().EpochVector; len(ev) != d.rig.cluster.NumShards() {
				t.Fatalf("epoch vector %v over %d shards", ev, d.rig.cluster.NumShards())
			}
			for _, c := range d.checks {
				c(t, det, srv, posts)
			}
		})
	}
}

func inProcess(n int) func(t *testing.T) deployment {
	return func(t *testing.T) deployment { return deployment{rig: wire(t, local(n), false)} }
}

func loopbacks(n int) func(t *testing.T) deployment {
	return func(t *testing.T) deployment { return deployment{rig: wire(t, loopback(n), false)} }
}

// exercisedWritePath checks that the load sealed and compacted, so the
// row ran over a segmented index, and that the index holds every post.
func exercisedWritePath(r *rig) check {
	return func(t *testing.T, _ *core.ShardedLiveDetector, _ *serve.Server, posts []microblog.Post) {
		p, _ := eqState(t)
		st := r.indexes[0].Stats()
		if st.Seals == 0 || st.Compactions == 0 || st.NumTweets != p.Corpus.NumTweets()+len(posts) {
			t.Fatalf("write path not exercised or posts missing: %+v", st)
		}
	}
}

// spilling is a row whose every member spills to disk.
func spilling(layout [][]bool) func(t *testing.T) deployment {
	return func(t *testing.T) deployment {
		r := wire(t, layout, true)
		return deployment{rig: r, checks: []check{spilled(r)}}
	}
}

// spilled checks that every member of a spilling rig wrote segments to
// disk without a spill error, and that the builder's spill directory
// holds only per-member directories.
func spilled(r *rig) check {
	return func(t *testing.T, _ *core.ShardedLiveDetector, _ *serve.Server, _ []microblog.Post) {
		for k, idx := range r.indexes {
			if st := idx.Stats(); st.Spills == 0 || st.DiskSegments == 0 || st.SpillErrors != 0 {
				t.Fatalf("member %d did not exercise the disk tier cleanly: %+v", k, st)
			}
		}
		ents, err := os.ReadDir(r.spillDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
				t.Fatalf("spill directory holds %s at its top level", e.Name())
			}
		}
	}
}

// replicated is N shards of a local primary and R-1 followers behind
// loopback.
func replicated(n, r int) func(t *testing.T) deployment {
	return func(t *testing.T) deployment {
		rg := wire(t, followers(n, r), false)
		return deployment{rig: rg, checks: []check{replicasInSync(rg)}}
	}
}

// replicaSets returns the cluster's shards as replica sets.
func replicaSets(t *testing.T, c *shard.Cluster) []*replica.Set {
	t.Helper()
	sets := make([]*replica.Set, c.NumShards())
	for i := range sets {
		set, ok := c.Backend(i).(*replica.Set)
		if !ok {
			t.Fatalf("shard %d is a %T, not a replica set", i, c.Backend(i))
		}
		sets[i] = set
	}
	return sets
}

// replicasInSync checks a healthy replicated row: every replica applied
// every write the sets accepted — all of the acknowledged posts — every
// replica served reads, and no read failed over.
func replicasInSync(r *rig) check {
	return func(t *testing.T, det *core.ShardedLiveDetector, _ *serve.Server, posts []microblog.Post) {
		var writes uint64
		for i, set := range replicaSets(t, r.cluster) {
			st := set.Stats()
			writes += st.Epoch
			for j := range st.Applied {
				if st.Applied[j] != st.Epoch || st.Reads[j] == 0 {
					t.Fatalf("shard %d replica %d applied %d of %d writes and served %d reads", i, j, st.Applied[j], st.Epoch, st.Reads[j])
				}
			}
		}
		if writes != uint64(len(posts)) {
			t.Fatalf("sets accepted %d writes, %d acknowledged", writes, len(posts))
		}
		if fo := det.Failovers(); fo != 0 {
			t.Fatalf("healthy replicas reported %d failovers", fo)
		}
	}
}

// followerKilled is N=2, R=2 with followers behind loopback whose
// servers are closed mid-load: the later writes eject the followers,
// reads fail over to the primaries, and nothing degrades.
func followerKilled(t *testing.T) deployment {
	r := wire(t, followers(2, 2), false)
	return deployment{
		rig: r,
		midway: func() {
			for _, servers := range r.servers {
				servers[1].Close()
			}
		},
		checks: []check{func(t *testing.T, _ *core.ShardedLiveDetector, _ *serve.Server, _ []microblog.Post) {
			for i, set := range replicaSets(t, r.cluster) {
				if st := set.Stats(); !st.Stale[1] || st.Applied[0] != st.Epoch {
					t.Fatalf("shard %d: the killed follower missed writes but %+v", i, st)
				}
			}
		}},
	}
}

// answeredOverHTTP puts the quiesced deployment behind gateway.New and
// requires every evaluation query's e# ranking, through the JSON round
// trip, to equal the cold rebuild's.
func answeredOverHTTP(t *testing.T, _ *core.ShardedLiveDetector, srv *serve.Server, posts []microblog.Post) {
	gw, err := gateway.New(gateway.Config{
		Serve:         srv,
		Tokens:        map[string]gateway.TokenConfig{"reader": {}},
		DefaultBudget: 30 * time.Second,
		MaxBudget:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	hs := httptest.NewServer(gw)
	defer hs.Close()
	cold := coldFor(t, posts)
	_, sets := eqState(t)
	for _, set := range sets {
		for _, q := range set.Queries {
			want, _ := cold.Search(q)
			jsonEqual(t, q, httpSearch(t, hs.URL, q), want)
		}
	}
}

// httpSearch POSTs one query to the gateway and returns the experts,
// failing unless the answer is a 200.
func httpSearch(t *testing.T, base, query string) []expertise.Expert {
	t.Helper()
	body, err := json.Marshal(map[string]string{"query": query})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer reader")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Experts []expertise.Expert `json:"experts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%q: status %d, decode error %v", query, resp.StatusCode, err)
	}
	return out.Experts
}

// jsonEqual compares two rankings as the gateway's JSON carries them
// (float64 survives the round trip exactly; an empty ranking is []).
func jsonEqual(t *testing.T, query string, got, want []expertise.Expert) {
	t.Helper()
	if want == nil {
		want = []expertise.Expert{}
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("%q diverged over HTTP:\n  got  %s\n  want %s", query, a, b)
	}
}

// TestReplicatedMixedLoadZeroPartials is the acceptance run of
// replication under fault: a follower dies at a scripted point under
// full mixed read/write load and the serving stats must show failover,
// not degradation — zero partial results, zero shard errors, zero
// uncacheable requests, the dead follower probed at most once per
// (here: infinite) backoff window — and the quiesced cluster must still
// rank bit-identically to a cold rebuild over the whole query pool.
func TestReplicatedMixedLoadZeroPartials(t *testing.T) {
	fault.CheckLeaks(t)
	p, sets := eqState(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	const n = 2
	backends := make([]shard.Backend, n)
	var f *fault.Backend // shard 0's follower
	for i := range backends {
		part := shard.Partition(p.Corpus, i, n)
		follower := fault.Wrap(shard.NewLocal(ingest.New(part, icfg)))
		if i == 0 {
			f = follower
		}
		set, err := replica.NewSet([]shard.Backend{shard.NewLocal(ingest.New(part, icfg)), follower},
			replica.Config{Backoff: shard.Backoff{Initial: time.Hour, Max: time.Hour}})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = set
	}
	cluster := shard.NewCluster(p.World, backends...)
	onTeardown(t, func() { cluster.Close() })

	det := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
	srv := serve.New(det, serve.DefaultConfig())

	// The kill fires mid-load, at the follower's 40th call — drain
	// semantics: whatever conversation is in flight completes, every
	// call after the gate fails.
	f.KillAfterCalls(40)
	pool := evalPool(sets)
	posts := runMixedLoad(p, srv, cluster, pool,
		load{writers: 2, perWriter: 200, seed: 29, searchers: 4, perSearcher: 3 * len(pool) / 4}, nil)
	if len(posts) != 400 {
		t.Fatalf("sink dropped writes: %d of 400 acknowledged", len(posts))
	}
	st := srv.Stats()
	if st.PartialResults != 0 || st.ShardErrors != 0 {
		t.Fatalf("replica death degraded queries under load: %+v", st)
	}
	if st.Uncacheable != 0 {
		t.Fatalf("replicated cluster went uncacheable under load: %+v", st)
	}
	if f.Calls() <= 40 {
		t.Fatalf("kill never fired: %d calls", f.Calls())
	}
	// At most one write reaches the dead follower (the one that ejects
	// it; after that, writes skip it), and reads stop probing it after
	// one backoff trip — per-request dialing is the bug this layer
	// fixes.
	if killed := f.IngestsKilled(); killed > 1 {
		t.Fatalf("dead follower was sent %d writes after the kill", killed)
	}
	if probes := f.SearchesKilled(); probes > 8 {
		t.Fatalf("dead follower absorbed %d read probes — backoff is not gating reads", probes)
	}
	// The spine holds under fault + load.
	if err := cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}
	cold := core.NewDetector(p.Collection, p.Corpus.ExtendedWith(posts), p.Cfg.Online)
	requireCold(t, det, cold, sets)
}

// TestPartialAnswerNeverCached is the probe of a degraded answer passed
// off as whole: shard 1 of two is a one-member replica set whose epoch —
// a local write counter — stays readable while its only replica is
// dead. Searched while it is down, every answer names shard 1 missing
// and none is cached; after it heals, every eval query's answer is
// whole again, equal to the cold rebuild.
func TestPartialAnswerNeverCached(t *testing.T) {
	fault.CheckLeaks(t)
	p, sets := eqState(t)
	icfg := ingest.Config{DisableCompactor: true}
	f := fault.Wrap(shard.NewLocal(ingest.New(shard.Partition(p.Corpus, 1, 2), icfg)))
	set, err := replica.NewSet([]shard.Backend{f}, replica.Config{Backoff: shard.Backoff{Initial: time.Nanosecond, Max: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	cluster := shard.NewCluster(p.World, shard.NewLocal(ingest.New(shard.Partition(p.Corpus, 0, 2), icfg)), set)
	onTeardown(t, func() { cluster.Close() })
	det := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
	srv := serve.New(det, serve.DefaultConfig())
	ctx := context.Background()

	f.Kill()
	pool := evalPool(sets)
	for _, q := range pool {
		var pe *serve.PartialError
		if _, _, err := srv.Answer(ctx, q, time.Time{}, nil); !errors.As(err, &pe) || pe.Missing != 1<<1 {
			t.Fatalf("%q with shard 1 dead: err %v, want shard 1 named missing", q, err)
		}
	}
	if st := srv.Stats(); st.CacheEntries != 0 || st.PartialResults != int64(len(pool)) {
		t.Fatalf("partial answers cached or uncounted: %+v", st)
	}

	f.Heal()
	cold := core.NewDetector(p.Collection, p.Corpus, p.Cfg.Online)
	for _, q := range pool {
		want, _ := cold.Search(q)
		expertsEqual(t, "esharp after heal", q, srv.Search(q), want)
	}
	if got := srv.Search("buffalo bills"); len(got) != 10 {
		t.Fatalf("buffalo bills after heal: %d experts, want 10", len(got))
	}
}
