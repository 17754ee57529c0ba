// Package ingest is the live ingestion subsystem: a segmented
// streaming index that accepts microblog posts while concurrent
// searches keep running against immutable views.
//
// Architecture. Writes land in an append-only active segment under a
// short mutex. A post is indexed exactly once, there and then: the
// writer appends its id to the active segment's term index (tailGen) as
// it lands, and that work is carried forward, never redone. When the
// active segment reaches Config.SealThreshold it is sealed: the
// buffered tweets and the index kept for them are encoded, as they are,
// into the compact segment format in memory (microblog.FromIndex,
// diskseg.Encode, diskseg.Load — see tier.go). A background compactor
// merges adjacent sealed segments of similar size into larger ones,
// LSM-style, by concatenating their encoded posting lists
// (diskseg.EncodeMerged), so a long-running index converges to a
// handful of segments instead of an ever-growing chain; a writer that
// outruns the compactor runs its drain itself (backlogFactor). Readers
// acquire an epoch-tagged *Snapshot — base corpus + sealed segments + a
// frozen view of the active tail — via a single atomic pointer load; every
// Ingest publishes a fresh snapshot with a single atomic pointer swap,
// so a query observes one consistent prefix of the stream for its whole
// lifetime. A view reads its tail where the writer keeps it: the one
// lock a reader can take is the tail generation's, held while a term
// match intersects the generation's posting lists or StatsInto reads
// its per-user lists — once per question to a snapshot that has a tail
// (see Snapshot.MatchTokensAppend and Snapshot.StatsInto).
//
// Per segment the zero-copy matching path runs unchanged
// (MatchTokensAppend, galloping IntersectInto); segment-local ids are
// rebased to global ids by segment start offset, per-term candidate
// lists are concatenated in segment order (globally ascending), and the
// union across expansion terms runs through expertise.MergeTweets. The
// per-user feature denominators a ranking pass needs are summed across
// base, sealed segments and the tail in one batch (Snapshot.StatsInto),
// which makes a quiesced live index bit-identical to a cold rebuild
// over the same posts — the correctness bar the equivalence tests
// enforce.
//
// One Index is one node. Scale-out stacks on top rather than inside:
// internal/shard runs N of these indexes behind an author-hash shard set,
// and core.ShardedLiveDetector scatter-gathers queries across their
// snapshots, composing the per-shard epochs into the vector epoch the
// serving cache invalidates on. See ARCHITECTURE.md at the repo root.
package ingest

import (
	"cmp"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskseg"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/world"
)

// Config tunes the streaming index.
type Config struct {
	// SealThreshold is the active-segment size that triggers sealing
	// into an immutable encoded segment. Zero means 2048.
	SealThreshold int
	// CompactFanIn is how many adjacent similar-sized sealed segments
	// the compactor merges at a time. Zero means 4.
	CompactFanIn int
	// DisableCompactor skips starting the background compactor (used by
	// tests and benchmarks that want to observe fragmented state) and
	// the backlog cap. An explicit Quiesce still compacts.
	DisableCompactor bool
	// SpillDir enables the disk tier: the compactor writes sealed
	// segments holding at least SpillThreshold posts to files under
	// this directory and maps them, and compaction merges whose result
	// crosses the threshold write straight to disk. Empty keeps every
	// segment in memory. The index owns the directory exclusively:
	// segment files left behind by a previous run are removed at
	// startup (there is no recovery — the stream is rebuilt by
	// replaying posts), so two indexes must not share one SpillDir.
	SpillDir string
	// SpillThreshold is the minimum segment size (posts) the disk tier
	// accepts. Zero with SpillDir set means 4×SealThreshold.
	SpillThreshold int
	// SpillBlockCache caps each disk segment's LRU of hot decoded
	// blocks, which is also the number of slots a full cache recycles;
	// see diskseg.Options.BlockCache. Zero means the diskseg default.
	SpillBlockCache int
	// SpillIO overrides the disk tier's file/mmap layer — the fault
	// seam of the disk chaos suite. Nil means the real OS.
	SpillIO diskseg.IO
	// Obs, when non-nil, attaches the index to a metrics registry:
	// ingest latency (ingest_ns), accepted posts (ingest_posts), seal
	// and compaction counts (ingest_seals, ingest_compactions), the
	// writes that drained past the backlog cap (ingest_writer_drains)
	// and the live sealed-segment gauge (ingest_segments). Nil keeps the
	// write path exactly as fast and allocation-free as un-instrumented.
	Obs *obs.Registry
}

// DefaultConfig returns the streaming defaults: a seal every 2048
// posts and compactions of 4 segments at a time (with a SpillDir, a
// spill threshold of 8192). A zero Config means the same.
func DefaultConfig() Config { return Config{SealThreshold: defaultSeal, CompactFanIn: 4} }

// defaultSeal is the seal threshold of DefaultConfig and of a zero
// Config. A bigger tail costs a reader nothing per post — a term match
// and StatsInto both read the generation's indexes, not its posts — so
// the seal is sized for the writer: an 80k-post preload seals 39 times
// and compacts 11 times at 2048 where 128 took 625 and 206.
const defaultSeal = 2048

// backlogFactor caps the un-merged backlog: a write whose seal leaves a
// size tier holding backlogFactor × CompactFanIn segments drains the
// compactor itself. A compactor that keeps up holds tiers below
// CompactFanIn, so 2 gives it one fan-in of slack before writers pay.
const backlogFactor = 2

// segment is one immutable slice of the stream: an encoded segment,
// in memory or mapped from a file (see tier.go). Its tweet ids are
// segment-local; start rebases them to global.
type segment struct {
	start microblog.TweetID
	*diskseg.Segment
	// noSpill pins a segment to memory after a failed spill so the
	// compactor does not retry a faulting disk forever.
	noSpill bool
}

// tailGen indexes one active segment — one generation of the tail,
// from the seal that started it to the seal that ends it — by term and
// by user. The writer appends each arriving post's segment-local id to
// its terms' lists and to its author's and mentioned users' lists
// (under Index.mu and mu); a snapshot reads the lists under mu and cuts
// each at its own prefix (Snapshot.MatchTokensAppend, StatsInto). The
// seal encodes idx and starts a new generation, so after it nothing
// here is written again.
type tailGen struct {
	mu    sync.Mutex
	idx   map[string][]microblog.TweetID // ascending segment-local ids
	users []tailUser                     // by user id, one per world user
}

// tailUser is what one generation holds that counts toward a user's
// denominators: the posts the user wrote and the posts mentioning them,
// each list ascending.
type tailUser struct {
	wrote []authored
	// mentioned holds a post's id once per mention of the user in it.
	mentioned []microblog.TweetID
}

// authored is one post of its author's, with the retweets of all the
// author's posts in the generation up to and including it.
type authored struct {
	id       microblog.TweetID
	retweets int
}

// newTailGen returns an empty generation over w's users.
func newTailGen(w *world.World) *tailGen {
	return &tailGen{idx: map[string][]microblog.TweetID{}, users: make([]tailUser, len(w.Users))}
}

// add indexes the post with segment-local id. Called with mu held.
func (g *tailGen) add(id microblog.TweetID, tw *microblog.Tweet) {
	for _, tok := range tw.Terms {
		list := g.idx[tok]
		// A token repeated inside the post already ends the list with id.
		if n := len(list); n == 0 || list[n-1] != id {
			g.idx[tok] = append(list, id)
		}
	}
	u := &g.users[tw.Author]
	sum := tw.RetweetCount
	if n := len(u.wrote); n > 0 {
		sum += u.wrote[n-1].retweets
	}
	u.wrote = append(u.wrote, authored{id, sum})
	for _, m := range tw.Mentions {
		u := &g.users[m]
		u.mentioned = append(u.mentioned, id)
	}
}

// addStats adds to dst[i] what the generation's first end posts count
// toward users[i], in one hold of mu: two binary searches per user,
// whatever the generation's length.
func (g *tailGen) addStats(dst []microblog.UserStats, users []world.UserID, end microblog.TweetID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, id := range users {
		u := &g.users[id]
		d := &dst[i]
		if k, _ := slices.BinarySearchFunc(u.wrote, end, byID); k > 0 {
			d.Tweets += k
			d.Retweets += u.wrote[k-1].retweets
		}
		k, _ := slices.BinarySearch(u.mentioned, end)
		d.Mentions += k
	}
}

func byID(a authored, id microblog.TweetID) int { return cmp.Compare(a.id, id) }

// Index is the writer side of the streaming index. Ingest is safe for
// concurrent use (writes serialize on a short internal lock); Snapshot
// is one atomic load, and a query against a snapshot locks nothing but
// its tailGen, once per term match or StatsInto of a snapshot with a
// tail.
type Index struct {
	w    *world.World
	base *microblog.Corpus
	cfg  Config

	mu          sync.Mutex
	active      []microblog.Tweet // segment-local ids, global = activeStart+i
	gen         *tailGen          // the term index of active
	activeStart microblog.TweetID
	// sealed is replaced whole, never written in place: every mutation
	// site stores a new array, so a snapshot aliases the slice it was
	// published with instead of copying it.
	sealed      []*segment
	epoch       uint64
	ingested    int64
	seals       int64
	compactions int64
	drains      int64 // writes that ran the drain past the backlog cap
	spills      int64
	spillErrors int64
	spillSeq    int64

	snap atomic.Pointer[Snapshot]
	// watch is the publish notification channel: closed and replaced on
	// publishLocked, so anyone holding the channel Watch returned is
	// woken exactly when a newer snapshot than the one they read becomes
	// visible. The pointer swap happens after snap.Store, which is what
	// makes the Watch-then-Epoch idiom race-free (see Watch). watched
	// makes the publish-side work lazy: the swap+close (one channel
	// allocation per publish) runs only when some Watch call armed it
	// since the last swap, so an index nobody watches — every in-process
	// deployment — publishes with zero notification overhead.
	watch   atomic.Pointer[chan struct{}]
	watched atomic.Bool

	// compactMu admits one compactor at a time: the background loop and a
	// caller's Quiesce drain under it in turn, never side by side. Only
	// its holder splices sealed (sealLocked just appends), so a run or a
	// spill target picked under mu is still in place when the rewrite
	// comes back to splice it in.
	compactMu  sync.Mutex
	compactReq chan struct{}
	done       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup

	// Pre-registered observability handles (nil without Config.Obs —
	// every record below is then a nil-check no-op, and the latency
	// clock is not even read).
	obsIngestNS     *obs.Histogram
	obsPosts        *obs.Counter
	obsSeals        *obs.Counter
	obsCompactions  *obs.Counter
	obsWriterDrains *obs.Counter
	obsSegments     *obs.Gauge
	obsDiskSegments *obs.Gauge
	obsSpills       *obs.Counter
	obsSpillErrors  *obs.Counter
}

// New wires a streaming index over a frozen base corpus (which may be
// empty but supplies the world) and starts the background compactor.
// Call Close to stop it.
func New(base *microblog.Corpus, cfg Config) *Index {
	if cfg.SealThreshold <= 0 {
		cfg.SealThreshold = defaultSeal
	}
	if cfg.CompactFanIn <= 1 {
		cfg.CompactFanIn = 4
	}
	if cfg.SpillDir != "" {
		if cfg.SpillThreshold <= 0 {
			cfg.SpillThreshold = 4 * cfg.SealThreshold
		}
		// A failure here surfaces on the first spill attempt as a
		// recorded spill error; the index keeps serving from memory.
		_ = os.MkdirAll(cfg.SpillDir, 0o755)
		// Stale segment files from a previous run are garbage: there is
		// no recovery path, so nothing will ever read them again.
		if ents, err := os.ReadDir(cfg.SpillDir); err == nil {
			for _, e := range ents {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".esg") {
					_ = os.Remove(filepath.Join(cfg.SpillDir, e.Name()))
				}
			}
		}
	}
	i := &Index{
		w:           base.World(),
		base:        base,
		cfg:         cfg,
		activeStart: microblog.TweetID(base.NumTweets()),
		gen:         newTailGen(base.World()),
		compactReq:  make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	if cfg.Obs != nil {
		i.obsIngestNS = cfg.Obs.Histogram("ingest_ns")
		i.obsPosts = cfg.Obs.Counter("ingest_posts")
		i.obsSeals = cfg.Obs.Counter("ingest_seals")
		i.obsCompactions = cfg.Obs.Counter("ingest_compactions")
		i.obsWriterDrains = cfg.Obs.Counter("ingest_writer_drains")
		i.obsSegments = cfg.Obs.Gauge("ingest_segments")
		i.obsDiskSegments = cfg.Obs.Gauge("disk_segments")
		i.obsSpills = cfg.Obs.Counter("ingest_spills")
		i.obsSpillErrors = cfg.Obs.Counter("ingest_spill_errors")
	}
	w0 := make(chan struct{})
	i.watch.Store(&w0)
	i.mu.Lock()
	i.publishLocked()
	i.mu.Unlock()
	if !cfg.DisableCompactor {
		i.wg.Add(1)
		go i.compactLoop()
	}
	return i
}

// Base returns the frozen corpus the stream extends.
func (i *Index) Base() *microblog.Corpus { return i.base }

// World returns the generating world.
func (i *Index) World() *world.World { return i.w }

// Ingest appends one post to the stream and publishes a fresh snapshot.
// It returns the post's global tweet id. Safe for concurrent use. The
// post's RetweetCount must lie in [0, diskseg.MaxRetweetCount] — every
// post is sealed into that format, and the wire refuses any other; a
// seal panics on one.
func (i *Index) Ingest(p microblog.Post) microblog.TweetID {
	var start time.Time
	if i.obsIngestNS != nil {
		start = time.Now()
	}
	tw := microblog.MakeTweet(p)
	i.mu.Lock()
	gid := i.activeStart + microblog.TweetID(len(i.active))
	sealedNow := i.appendLocked(tw)
	i.publishLocked()
	i.mu.Unlock()
	if sealedNow {
		i.kickCompactor()
	}
	if i.obsIngestNS != nil {
		i.obsIngestNS.Observe(time.Since(start).Nanoseconds())
		i.obsPosts.Inc()
	}
	return gid
}

// IngestBatch ingests posts in order and returns the global id of the
// first one. The batch's ids are contiguous only with a single writer;
// concurrent ingesters interleave their batches (never the posts
// inside one). The whole batch is appended under one lock acquisition
// and published with one snapshot swap — sealing mid-batch as the
// threshold demands — so a K-post batch advances the epoch by exactly
// 1 instead of K: one serve-cache invalidation, one watcher wakeup,
// regardless of batch size.
func (i *Index) IngestBatch(posts []microblog.Post) microblog.TweetID {
	if len(posts) == 0 {
		return -1
	}
	var start time.Time
	if i.obsIngestNS != nil {
		start = time.Now()
	}
	// Render (truncate + tokenize) outside the lock; only the appends
	// and seals run inside it.
	tws := make([]microblog.Tweet, len(posts))
	for j := range posts {
		tws[j] = microblog.MakeTweet(posts[j])
	}
	i.mu.Lock()
	first := i.activeStart + microblog.TweetID(len(i.active))
	sealedNow := false
	for _, tw := range tws {
		if i.appendLocked(tw) {
			sealedNow = true
		}
	}
	i.publishLocked()
	i.mu.Unlock()
	if sealedNow {
		i.kickCompactor()
	}
	if i.obsIngestNS != nil {
		i.obsIngestNS.Observe(time.Since(start).Nanoseconds())
		i.obsPosts.Add(int64(len(posts)))
	}
	return first
}

// Snapshot returns the current epoch-tagged immutable view. The
// returned snapshot stays valid (and frozen) forever; a query should
// acquire one snapshot and run entirely against it.
func (i *Index) Snapshot() *Snapshot { return i.snap.Load() }

// Epoch returns the epoch of the current snapshot.
func (i *Index) Epoch() uint64 { return i.snap.Load().epoch }

// Watch returns a channel that is closed when a snapshot newer than
// the current one is published. To wait without losing a wakeup, grab
// the channel first and read Epoch (or Snapshot) second: a publish
// racing the two reads either bumped the epoch you are about to read
// or will close the channel you already hold. Each publish retires the
// channel, so re-Watch after every wakeup.
//
// The channel is loaded before watched is armed: any channel this
// returns is either still current when the caller sleeps on it — in
// which case watched is already true and the next publish closes it —
// or it was retired by a racing publish, which means it is closed and
// the caller wakes immediately. Either way no wakeup is lost.
func (i *Index) Watch() <-chan struct{} {
	ch := *i.watch.Load()
	i.watched.Store(true)
	return ch
}

// appendLocked lands one rendered post in the active segment and
// indexes it — the only time the post's terms are looked at — sealing
// when the threshold is reached (reported, so the caller kicks the
// compactor once mu is released). Called with mu held.
func (i *Index) appendLocked(tw microblog.Tweet) (sealed bool) {
	// The stored id is segment-local, so it survives sealing unchanged.
	id := microblog.TweetID(len(i.active))
	tw.ID = id
	i.active = append(i.active, tw)
	i.gen.mu.Lock()
	i.gen.add(id, &tw)
	i.gen.mu.Unlock()
	i.ingested++
	if len(i.active) < i.cfg.SealThreshold {
		return false
	}
	i.sealLocked()
	return true
}

// sealLocked freezes the active segment into an immutable encoded
// segment: the active array and the generation's term index, adopted as
// they are (microblog.FromIndex — nothing is re-indexed), are encoded
// into one image in memory and loaded. The writer moves on to a fresh
// array — published snapshots still read the old one — and a fresh
// generation.
//
// Every post's retweet count must fit the format (see Ingest): a seal
// cannot leave a post out.
func (i *Index) sealLocked() {
	n := len(i.active)
	img, err := diskseg.Encode(microblog.FromIndex(i.w, i.active[:n:n], i.gen.idx))
	if err != nil {
		panic(fmt.Sprintf("ingest: seal: %v", err))
	}
	seg := &segment{start: i.activeStart, Segment: i.load(img)}
	i.sealed = append(i.sealed[:len(i.sealed):len(i.sealed)], seg)
	i.activeStart += microblog.TweetID(n)
	i.active = make([]microblog.Tweet, 0, i.cfg.SealThreshold)
	i.gen = newTailGen(i.w)
	i.seals++
	i.obsSeals.Inc()
}

// publishLocked swaps in a fresh snapshot. The tail shares the active
// segment's backing array — safe because readers only touch indices
// below the frozen length and the atomic store orders the published
// elements before any reader's load — and the sealed layout is aliased,
// not copied (it is replaced whole on every change).
func (i *Index) publishLocked() {
	i.epoch++
	snap := &Snapshot{
		epoch:     i.epoch,
		base:      i.base,
		segs:      i.sealed,
		tail:      i.active[:len(i.active):len(i.active)],
		tailStart: i.activeStart,
		gen:       i.gen,
	}
	// Pin the mapped segments: the snapshot takes one reference per
	// mapped segment, released by a GC cleanup when the snapshot is
	// retired. A compaction dropping the segment from the layout only
	// releases the layout's own reference, so a reader on this snapshot
	// can never see its map pulled out from under it. In-memory
	// segments need no pin.
	nDisk := i.diskSegmentsLocked()
	if nDisk > 0 {
		disks := make([]*diskseg.Segment, 0, nDisk)
		for _, sg := range i.sealed {
			if sg.OnDisk() {
				sg.Retain()
				disks = append(disks, sg.Segment)
			}
		}
		runtime.AddCleanup(snap, releaseDiskRefs, disks)
	}
	i.obsDiskSegments.Set(int64(nDisk))
	i.snap.Store(snap)
	// Wake watchers only after the new snapshot is visible, and replace
	// the channel before closing it so a watcher that re-Watches
	// immediately gets the next generation, not a closed channel. The
	// swap runs only when someone armed watched since the last one —
	// channels are retired exclusively by being closed here (swaps
	// serialize under mu), so a skipped publish leaves every handed-out
	// channel current and its holder covered by the next armed publish.
	if i.watched.Swap(false) {
		next := make(chan struct{})
		old := i.watch.Swap(&next)
		close(*old)
	}
	i.obsSegments.Set(int64(len(i.sealed)))
}

// kickCompactor nudges the background compactor without blocking — or,
// past the backlog cap, runs its drain on the sealing writer.
func (i *Index) kickCompactor() {
	if i.overBacklog() {
		i.drain()
		return
	}
	select {
	case i.compactReq <- struct{}{}:
	default:
	}
}

// overBacklog reports, and counts as a writer drain, a layout with a
// size tier at the backlog cap. DisableCompactor indexes are exempt:
// they promise their fragmentation to tests and benchmarks.
func (i *Index) overBacklog() bool {
	if i.cfg.DisableCompactor {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var perTier [65]int // a tier is a bits.Len of a uint
	for _, sg := range i.sealed {
		t := i.tier(sg)
		if perTier[t]++; perTier[t] == backlogFactor*i.cfg.CompactFanIn {
			i.drains++
			i.obsWriterDrains.Inc()
			return true
		}
	}
	return false
}

// compactLoop runs until Close, merging whenever a seal makes a run of
// similar-sized segments eligible.
func (i *Index) compactLoop() {
	defer i.wg.Done()
	for {
		select {
		case <-i.done:
			return
		case <-i.compactReq:
			i.drain()
		}
	}
}

// drain runs every eligible compaction and spill to completion, one
// compactor at a time (see compactMu).
func (i *Index) drain() {
	i.compactMu.Lock()
	defer i.compactMu.Unlock()
	for i.compactOnce() || i.spillOnce() {
	}
}

// releaseDiskRefs is the snapshot-retirement cleanup (a top-level
// function so the GC cleanup captures only the segment list).
func releaseDiskRefs(disks []*diskseg.Segment) {
	for _, d := range disks {
		d.Release()
	}
}

// tier buckets a segment size into a size class: segments of the same
// tier are candidates for merging, which gives LSM-style geometric
// growth and O(n log n) total compaction work, wherever the segments'
// bytes live.
func (i *Index) tier(seg *segment) int {
	return bits.Len(uint(seg.NumTweets() / i.cfg.SealThreshold))
}

// pickRunLocked finds the first adjacent run of CompactFanIn
// same-tier sealed segments, returning its start index and the run (a
// window of the layout array, which is never written in place).
func (i *Index) pickRunLocked() (int, []*segment) {
	fanIn := i.cfg.CompactFanIn
	for a := 0; a+fanIn <= len(i.sealed); a++ {
		t := i.tier(i.sealed[a])
		ok := true
		for j := 1; j < fanIn; j++ {
			if i.tier(i.sealed[a+j]) != t {
				ok = false
				break
			}
		}
		if ok {
			return a, i.sealed[a : a+fanIn]
		}
	}
	return 0, nil
}

// compactOnce merges one eligible run (mergeRun) and publishes the new
// layout. It reports whether it made progress and should be called
// again. The merge runs outside mu: the run's segments are immutable
// and, with compactMu held by the caller, nothing else can move them.
func (i *Index) compactOnce() bool {
	i.mu.Lock()
	a, run := i.pickRunLocked()
	if run == nil {
		i.mu.Unlock()
		return false
	}
	i.mu.Unlock()

	merged, err := i.mergeRun(run)
	if err != nil {
		i.mu.Lock()
		i.spillErrors++
		i.mu.Unlock()
		i.obsSpillErrors.Inc()
	}

	i.mu.Lock()
	defer i.mu.Unlock()
	i.sealed = slices.Concat(i.sealed[:a], []*segment{merged}, i.sealed[a+len(run):])
	i.compactions++
	i.obsCompactions.Inc()
	if merged.OnDisk() {
		i.spills++
		i.obsSpills.Inc()
	}
	i.publishLocked()
	// Only now — with the new layout published and pinned by its
	// snapshot — drop the layout references of the replaced segments.
	// Older snapshots still holding them keep their maps alive.
	for _, sg := range run {
		sg.Release()
	}
	return true
}

// Quiesce synchronously drains every eligible compaction and — when
// the disk tier is configured — every eligible spill, waiting out a
// background pass already in flight. Afterwards, absent concurrent
// ingest, the segment layout is stable, nothing is mid-rewrite and
// every segment past the spill threshold lives on disk, which the
// equivalence tests rely on.
func (i *Index) Quiesce() { i.drain() }

// Close stops the background compactor. The index remains readable and
// writable; only a write past the backlog cap or Quiesce compacts.
func (i *Index) Close() {
	i.closeOnce.Do(func() { close(i.done) })
	i.wg.Wait()
}

// IndexStats is a snapshot of the writer-side counters.
type IndexStats struct {
	// Epoch is the current snapshot epoch (one publish per ingest,
	// seal or compaction).
	Epoch uint64
	// NumTweets counts base plus ingested tweets.
	NumTweets int
	// Ingested counts live posts accepted.
	Ingested int64
	// Segments is the current sealed-segment count; DiskSegments how
	// many of those are mapped from files; ActiveLen the unsealed tail
	// length.
	Segments     int
	DiskSegments int
	ActiveLen    int
	// Seals and Compactions count background structural events; Spills
	// counts segments written to files and SpillErrors the writes that
	// faulted (the segment stayed in memory).
	Seals, Compactions  int64
	Spills, SpillErrors int64
	// WriterDrains counts writes that sealed past the backlog cap and
	// drained the compactor themselves before returning.
	WriterDrains int64
}

// Stats snapshots the writer-side counters.
func (i *Index) Stats() IndexStats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return IndexStats{
		Epoch:        i.epoch,
		NumTweets:    int(i.activeStart) + len(i.active),
		Ingested:     i.ingested,
		Segments:     len(i.sealed),
		DiskSegments: i.diskSegmentsLocked(),
		ActiveLen:    len(i.active),
		Seals:        i.seals,
		Compactions:  i.compactions,
		Spills:       i.spills,
		SpillErrors:  i.spillErrors,
		WriterDrains: i.drains,
	}
}

// diskSegmentsLocked counts the sealed segments mapped from files.
func (i *Index) diskSegmentsLocked() int {
	n := 0
	for _, sg := range i.sealed {
		if sg.OnDisk() {
			n++
		}
	}
	return n
}
