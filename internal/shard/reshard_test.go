package shard_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/serve"
	"repro/internal/shard"
)

// mixedLoadPosts regenerates exactly the post multiset a
// serve.RunMixedLoad run with (seed, total, workers) ingested: worker
// w draws from its own deterministic stream at Seed+w and takes
// total/workers posts (worker 0 takes the slack). Worker interleaving
// is racy but irrelevant — every ranking input is an
// order-independent integer sum, so the multiset pins the cold
// reference.
func mixedLoadPosts(p *core.Pipeline, seed uint64, total, workers int) []microblog.Post {
	var posts []microblog.Post
	for w := 0; w < workers; w++ {
		cfg := microblog.DefaultStreamConfig(seed)
		cfg.Seed = seed + uint64(w)
		stream := microblog.NewPostStream(p.World, cfg)
		n := total / workers
		if w == 0 {
			n += total % workers
		}
		for i := 0; i < n; i++ {
			posts = append(posts, stream.Next())
		}
	}
	return posts
}

// evalQueries flattens every evaluation query set into one load pool.
func evalQueries(sets []eval.QuerySet) []string {
	var qs []string
	for _, set := range sets {
		qs = append(qs, set.Queries...)
	}
	return qs
}

// TestReshardQuiescedEquivalence is the acceptance bar of live
// resharding: migrate a serving deployment from N to M shards while
// a mixed search/ingest load runs against it, quiesce, and the
// migrated deployment must rank bit-identically — experts and
// matched-tweet counts, e# and baseline, every evaluation query set —
// to a cold rebuild at M over the same posts. Grow by an integer
// factor (4→8), grow across the PR's flagship 2→4 step, and shrink
// (4→2); in each case reads flow through the serving layer the whole
// time (its cache tolerating the epoch-vector length change at
// cutover) and writes flow through the migration's routing table.
func TestReshardQuiescedEquivalence(t *testing.T) {
	p, sets := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	queries := evalQueries(sets)

	cases := []struct{ from, to int }{{4, 8}, {2, 4}, {4, 2}}
	for ci, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			seed := uint64(8100 + 10*ci)
			src := shard.New(p.Corpus, tc.from, icfg)
			defer src.Close()
			dst := shard.New(p.Corpus, tc.to, icfg)
			defer dst.Close()

			det := core.NewShardedLiveDetectorOver(p.Collection, src, p.Cfg.Online)
			srv := serve.New(det, serve.Config{CacheSize: 256})
			mig, err := shard.NewMigration(src, dst, shard.MigrationConfig{
				PageSize: 64,
				Cutover:  func(to *shard.Cluster) { det.SwapCluster(to) },
			})
			if err != nil {
				t.Fatal(err)
			}
			det.AttachMigration(mig)

			// Pre-migration history: content the drain must move.
			pre := streamPosts(p, seed+1000, 300)
			for _, post := range pre {
				mig.IngestBatch([]microblog.Post{post})
			}

			// The mixed load runs concurrently with the whole migration:
			// early writes land before the drain cut, late ones during
			// catch-up rounds and after cutover — all three paths feed
			// the same equivalence check.
			const loadPosts, loadWorkers = 600, 3
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve.RunMixedLoad(srv, mig, serve.MixedLoadConfig{
					Queries:       queries,
					Searches:      300,
					SearchWorkers: 4,
					Ingests:       loadPosts,
					IngestWorkers: loadWorkers,
					BaselineEvery: 5,
					Seed:          seed,
				})
			}()

			if err := mig.Start(); err != nil {
				t.Fatal(err)
			}
			if err := mig.Drain(); err != nil {
				t.Fatal(err)
			}
			// The dual-read window is open: reads still route to the
			// (provably complete) source, and each is counted.
			det.Search(queries[0])
			det.Search(queries[1%len(queries)])
			if err := mig.Cutover(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()

			if got := mig.State(); got != shard.MigrationDone {
				t.Fatalf("migration state %v, want done", got)
			}
			if got := mig.Table(); got.Shards != tc.to || got.Version != 2 {
				t.Fatalf("routing table %+v, want shards %d version 2", got, tc.to)
			}
			if det.Cluster() != dst {
				t.Fatal("cutover did not swap the read path to the destination cluster")
			}
			st := mig.Stats()
			if st.WindowHits < 2 {
				t.Fatalf("dual-read window saw %d hits, want >= 2", st.WindowHits)
			}
			if st.PostsStreamed < int64(len(pre)) {
				t.Fatalf("streamed %d posts, want at least the %d pre-migration ones", st.PostsStreamed, len(pre))
			}
			if st.BytesStreamed <= 0 || st.AuthorsMoving <= 0 || st.CatchUpRounds <= 0 {
				t.Fatalf("implausible progress stats: %+v", st)
			}
			sst := srv.Stats()
			if sst.Reshard == nil || sst.Reshard.State != shard.MigrationDone {
				t.Fatalf("serve stats reshard snapshot %+v, want done", sst.Reshard)
			}

			// Quiesced equivalence at M: the migrated deployment against
			// a cold detector rebuilt over base + every post the run
			// ingested.
			dst.Quiesce()
			posts := append(append([]microblog.Post{}, pre...), mixedLoadPosts(p, seed, loadPosts, loadWorkers)...)
			cold := core.NewDetector(p.Collection, p.Corpus.ExtendedWith(posts), p.Cfg.Online)
			for _, set := range sets {
				for _, q := range set.Queries {
					gotES, gotTrace := det.Search(q)
					coldES, coldTrace := cold.Search(q)
					expertsIdentical(t, "resharded-vs-cold", q, gotES, coldES)
					if gotTrace.MatchedTweets != coldTrace.MatchedTweets {
						t.Fatalf("%d→%d %q: matched %d tweets resharded, cold %d",
							tc.from, tc.to, q, gotTrace.MatchedTweets, coldTrace.MatchedTweets)
					}
					expertsIdentical(t, "resharded-baseline", q,
						det.SearchBaseline(q), cold.SearchBaseline(q))
				}
			}
			if pq, se := det.PartialStats(); pq != 0 || se != 0 {
				t.Fatalf("%d→%d: migration degraded reads: partial queries %d, shard errors %d", tc.from, tc.to, pq, se)
			}
		})
	}
}

// TestReshardChaosMidDrain kills a destination backend partway through
// the drain (via the fault gate, at a scripted call count) while mixed
// load runs, and requires the clean half of abort-or-complete: the
// migration aborts, cutover never runs, the routing table stays at N,
// reads never degrade (zero partials — they only ever touched the
// source), and the source still ranks bit-identically to a cold
// rebuild over everything accepted. Nothing is half-applied anywhere a
// query can see.
func TestReshardChaosMidDrain(t *testing.T) {
	p, sets := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	queries := evalQueries(sets)
	const from, to = 4, 8
	const seed = uint64(8200)

	src := shard.New(p.Corpus, from, icfg)
	defer src.Close()

	faults := make([]*fault.Backend, to)
	backends := make([]shard.Backend, to)
	for j := 0; j < to; j++ {
		idx := ingest.New(shard.Partition(p.Corpus, j, to), icfg)
		defer idx.Close()
		faults[j] = fault.Wrap(shard.NewLocal(idx))
		backends[j] = faults[j]
	}
	dstCluster := shard.NewCluster(p.World, backends...)

	det := core.NewShardedLiveDetectorOver(p.Collection, src, p.Cfg.Online)
	srv := serve.New(det, serve.Config{CacheSize: 256})
	cutover := false
	mig, err := shard.NewMigration(src, dstCluster, shard.MigrationConfig{
		PageSize: 16,
		Cutover:  func(*shard.Cluster) { cutover = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	det.AttachMigration(mig)

	pre := streamPosts(p, seed+1000, 400)
	for _, post := range pre {
		mig.IngestBatch([]microblog.Post{post})
	}
	// The drain will stream dozens of small filtered batches into each
	// destination; dying after a couple of calls lands the kill
	// squarely mid-drain.
	faults[3].KillAfterCalls(2)

	const loadPosts, loadWorkers = 400, 3
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serve.RunMixedLoad(srv, mig, serve.MixedLoadConfig{
			Queries:       queries,
			Searches:      200,
			SearchWorkers: 4,
			Ingests:       loadPosts,
			IngestWorkers: loadWorkers,
			BaselineEvery: 5,
			Seed:          seed,
		})
	}()
	err = mig.Run()
	wg.Wait()

	if err == nil {
		t.Fatal("migration survived a destination backend killed mid-drain")
	}
	if got := mig.State(); got != shard.MigrationAborted {
		t.Fatalf("migration state %v, want aborted", got)
	}
	if mig.Err() == nil || mig.Stats().Err == "" {
		t.Fatal("aborted migration reports no cause")
	}
	if cutover {
		t.Fatal("cutover ran despite the abort")
	}
	if got := mig.Table(); got.Shards != from || got.Version != 1 {
		t.Fatalf("routing table %+v moved despite the abort", got)
	}
	if det.Cluster() != src {
		t.Fatal("read path left the source cluster despite the abort")
	}

	// The source absorbed every accepted write and still clears the
	// equivalence bar; reads never touched the dying destination.
	src.Quiesce()
	posts := append(append([]microblog.Post{}, pre...), mixedLoadPosts(p, seed, loadPosts, loadWorkers)...)
	cold := core.NewDetector(p.Collection, p.Corpus.ExtendedWith(posts), p.Cfg.Online)
	for _, set := range sets {
		for _, q := range set.Queries {
			gotES, gotTrace := det.Search(q)
			coldES, coldTrace := cold.Search(q)
			expertsIdentical(t, "aborted-vs-cold", q, gotES, coldES)
			if gotTrace.MatchedTweets != coldTrace.MatchedTweets {
				t.Fatalf("%q: matched %d tweets after abort, cold %d",
					q, gotTrace.MatchedTweets, coldTrace.MatchedTweets)
			}
		}
	}
	if pq, se := det.PartialStats(); pq != 0 || se != 0 {
		t.Fatalf("abort degraded reads: partial queries %d, shard errors %d", pq, se)
	}
}

// TestPagePostsNegativeCursorIsEmpty pins the page loop's lower edge: a
// cursor before the log (what a wrapped wire value used to decode to)
// pages nothing instead of indexing the snapshot at -1.
func TestPagePostsNegativeCursorIsEmpty(t *testing.T) {
	p, _ := testPipeline(t)
	c := shard.New(p.Corpus, 1, ingest.Config{DisableCompactor: true})
	defer c.Close()
	local := c.Backend(0).(*shard.Local)
	posts, scanned, total, err := local.PagePosts(-1, 16, 0, 0)
	if err != nil || len(posts) != 0 || scanned != 0 || total != p.Corpus.NumTweets() {
		t.Fatalf("PagePosts(-1): %d posts, scanned %d, total %d, err %v — want an empty page of a %d-post log",
			len(posts), scanned, total, err, p.Corpus.NumTweets())
	}
}

// TestMigrationStateMachine pins the coordinator's lifecycle edges:
// construction validation, phase ordering, idempotent abort, and the
// write path staying on the source after an abort.
func TestMigrationStateMachine(t *testing.T) {
	p, _ := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	src := shard.New(p.Corpus, 2, icfg)
	defer src.Close()
	dst := shard.New(p.Corpus, 4, icfg)
	defer dst.Close()

	if _, err := shard.NewMigration(nil, dst, shard.MigrationConfig{}); err == nil {
		t.Fatal("nil source accepted")
	}
	other, err := core.BuildPipeline(core.TinyPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	foreign := shard.New(other.Corpus, 4, icfg)
	defer foreign.Close()
	if _, err := shard.NewMigration(src, foreign, shard.MigrationConfig{}); err == nil ||
		!strings.Contains(err.Error(), "world") {
		t.Fatalf("cross-world migration accepted (err %v)", err)
	}

	mig, err := shard.NewMigration(src, dst, shard.MigrationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mig.State(); got != shard.MigrationIdle {
		t.Fatalf("fresh migration state %v", got)
	}
	if err := mig.Drain(); err == nil {
		t.Fatal("drain before start accepted")
	}
	if err := mig.Cutover(); err == nil {
		t.Fatal("cutover before start accepted")
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	mig.Abort()
	mig.Abort() // idempotent
	if got := mig.State(); got != shard.MigrationAborted {
		t.Fatalf("state %v after abort", got)
	}
	if err := mig.Drain(); err == nil {
		t.Fatal("drain after abort accepted")
	}
	// Writes still land on the (authoritative) source after an abort.
	post := streamPosts(p, 9001, 1)[0]
	before := src.Epoch()
	if err := mig.IngestBatch([]microblog.Post{post}); err != nil || src.Epoch() == before {
		t.Fatalf("post dropped after abort: %v", err)
	}
	for _, s := range []shard.MigrationState{shard.MigrationIdle, shard.MigrationDraining,
		shard.MigrationWindowOpen, shard.MigrationDone, shard.MigrationAborted, shard.MigrationState(99)} {
		if s.String() == "" {
			t.Fatalf("state %d has no name", s)
		}
	}
}

// TestHealthFlapDuringMigration pins the Health/Backoff contract a
// retrying drain leans on when a shard flaps mid-migration: however
// many handoff retries hammer AllowAt inside one backoff window,
// exactly one is granted the probe per window; each failed probe
// doubles the window; and the first success restores full health so
// the drain resumes at line rate. (Drain streams consult the same
// per-backend Health the epoch sampler uses, so a flapping shard
// costs one dial per window, not one per page retry.)
func TestHealthFlapDuringMigration(t *testing.T) {
	h := shard.NewHealth(shard.Backoff{Initial: 100 * time.Millisecond, Max: time.Second})
	t0 := time.Unix(1000, 0)

	h.FailAt(t0) // the shard flaps as the drain starts
	if h.Healthy() {
		t.Fatal("healthy immediately after a failure")
	}
	if h.AllowAt(t0.Add(50 * time.Millisecond)) {
		t.Fatal("probe granted inside the backoff window")
	}

	// A drain retry loop plus concurrent epoch samplers all poll at
	// window expiry: exactly one caller wins the probe.
	granted := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	at := t0.Add(101 * time.Millisecond)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h.AllowAt(at) {
				mu.Lock()
				granted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted != 1 {
		t.Fatalf("%d probes granted at window expiry, want exactly 1", granted)
	}

	// The granted probe fails: the window doubles, and the whole next
	// window grants nothing — the retrying drain is refused cheaply.
	h.FailAt(at)
	if h.AllowAt(at.Add(150 * time.Millisecond)) {
		t.Fatal("probe granted inside the doubled window")
	}
	if !h.AllowAt(at.Add(201 * time.Millisecond)) {
		t.Fatal("no probe granted after the doubled window expired")
	}
	if h.Failures() != 2 {
		t.Fatalf("recorded %d failures, want 2", h.Failures())
	}

	// The flap ends: one success restores full health and the drain's
	// next page is admitted immediately.
	h.Ok()
	if !h.Healthy() || !h.AllowAt(at.Add(202*time.Millisecond)) || h.Failures() != 0 {
		t.Fatal("success did not restore full health")
	}
}
