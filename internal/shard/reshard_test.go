package shard_test

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
)

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

// TestPagePostsOverEveryTier pins the page loop over the log scan: one
// snapshot holding base, in-memory segments, disk segments and a tail, paged
// whole in cuts that are no multiple of a 64-post tweet block, with and
// without the migration filter, and with from and max at the edges (max
// up to MaxInt: the in-process pager takes any). Every page equals the
// per-id loop over the cold corpus, scanned and total included.
func TestPagePostsOverEveryTier(t *testing.T) {
	p, _ := testPipeline(t)
	posts := streamPosts(p, 3101, 200)
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 24, CompactFanIn: 3, SpillDir: t.TempDir(), SpillThreshold: 72})
	defer idx.Close()
	idx.IngestBatch(posts)
	idx.Quiesce()
	if st := idx.Stats(); st.DiskSegments == 0 || st.DiskSegments == st.Segments || st.ActiveLen == 0 {
		t.Fatalf("want base, in-memory and disk segments and a tail: %+v", st)
	}
	local := shard.NewLocal(idx)
	cold := p.Corpus.ExtendedWith(posts)
	base, total := p.Corpus.NumTweets(), cold.NumTweets()
	page := func(from, max, fs, fi int) int {
		t.Helper()
		got, scanned, gotTotal, err := local.PagePosts(from, max, fs, fi)
		want, wantScanned := refPage(cold, from, max, fs, fi)
		if err != nil || scanned != wantScanned || gotTotal != total || !samePosts(got, want) {
			t.Fatalf("PagePosts(%d, %d, %d, %d): %d posts, scanned %d, total %d, err %v; want %d posts, scanned %d, total %d",
				from, max, fs, fi, len(got), scanned, gotTotal, err, len(want), wantScanned, total)
		}
		return scanned
	}
	for _, f := range [][2]int{{0, 0}, {2, 0}, {2, 1}, {3, 2}} {
		for _, max := range []int{37, 100, 2048} {
			for from := base - 500; from < total; from += page(from, max, f[0], f[1]) {
			}
		}
		for _, from := range []int{-1, 0, base - 1, base, total - 1, total, total + 5} {
			for _, max := range []int{-1, 0, 1, 63, 65, math.MaxInt} {
				page(from, max, f[0], f[1])
			}
		}
	}
}

// refPage is the per-id page loop over the cold corpus that every
// PagePosts page is held to.
func refPage(cold *microblog.Corpus, from, max, fs, fi int) (posts []microblog.Post, scanned int) {
	if max <= 0 || from < 0 || from >= cold.NumTweets() {
		return nil, 0
	}
	for gid := from; gid < cold.NumTweets() && scanned < max; gid++ {
		scanned++
		tw := cold.Tweet(microblog.TweetID(gid))
		if fs > 0 && shard.ShardOf(tw.Author, fs) != fi {
			continue
		}
		posts = append(posts, microblog.Post{Author: tw.Author, Text: tw.Text, Mentions: tw.Mentions, RetweetCount: tw.RetweetCount, Topic: tw.Topic})
	}
	return posts, scanned
}

// samePosts compares two pages field by field, nil and empty mentions
// alike.
func samePosts(a, b []microblog.Post) bool {
	return slices.EqualFunc(a, b, func(x, y microblog.Post) bool {
		return x.Author == y.Author && x.Text == y.Text && x.RetweetCount == y.RetweetCount &&
			x.Topic == y.Topic && slices.Equal(x.Mentions, y.Mentions)
	})
}

// unpageable is a shard that serves but cannot page its log: the
// embedded interface hides Local's LogPager methods.
type unpageable struct{ shard.Backend }

// TestNewMigrationRejectsNonPager pins that a migration resolves the
// log pagers of both clusters once, at construction: a destination
// shard that cannot page its log is refused there — the cutover gate
// checks every destination's total through it — and so is a source
// shard, whose log the drain pages.
func TestNewMigrationRejectsNonPager(t *testing.T) {
	p, _ := testPipeline(t)
	icfg := ingest.Config{DisableCompactor: true}
	src := shard.New(p.Corpus, 2, icfg)
	defer src.Close()
	dst := shard.New(p.Corpus, 4, icfg)
	defer dst.Close()
	backends := make([]shard.Backend, dst.NumShards())
	for j := range backends {
		backends[j] = dst.Backend(j)
	}
	backends[2] = unpageable{backends[2]}
	if _, err := shard.NewMigration(src, shard.NewCluster(p.World, backends...), shard.MigrationConfig{}); err == nil ||
		!strings.Contains(err.Error(), "destination shard 2 cannot page its log") {
		t.Fatalf("a destination that cannot page its log was accepted (err %v)", err)
	}
	hidden := shard.NewCluster(p.World, src.Backend(0), unpageable{src.Backend(1)})
	if _, err := shard.NewMigration(hidden, dst, shard.MigrationConfig{}); err == nil ||
		!strings.Contains(err.Error(), "source shard 1 cannot page its log") {
		t.Fatalf("a source that cannot page its log was accepted (err %v)", err)
	}
	if _, err := shard.NewMigration(src, dst, shard.MigrationConfig{}); err != nil {
		t.Fatalf("two clusters of Locals refused: %v", err)
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
	_, before, _ := shardStats(src)
	if err := mig.IngestBatch([]microblog.Post{post}); err != nil {
		t.Fatal(err)
	}
	if _, after, _ := shardStats(src); after != before+1 {
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
