package ingest_test

// The disk-tier suite: the acceptance bar of PR 10. A spilled index
// must be indistinguishable from an all-in-memory one except for where the
// bytes live — bit-identical rankings, snapshots that keep answering
// after compaction drops their segments, clean degradation to memory
// under storage faults, and race-cleanliness with the spiller in the
// loop.

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
)

// segFiles counts the segment files currently in a spill directory.
func segFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestDiskExtractionAllocatesNothingPerPost pins the cost model of the disk
// tier's read path: candidate extraction over a quiesced snapshot whose
// every sealed segment is on disk reads each matched post's features in place off the map — no tweet-block decode,
// so nothing is allocated however many posts match (the parent format
// decoded a 64-tweet block, ≈130 objects, per matched post).
func TestDiskExtractionAllocatesNothingPerPost(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 32, CompactFanIn: 3,
		SpillDir: t.TempDir(), SpillThreshold: 32,
	})
	defer idx.Close()
	idx.IngestBatch(streamPosts(p, 67, 384)) // 12 full seals, empty tail
	idx.Quiesce()
	st := idx.Stats()
	if st.DiskSegments == 0 || st.DiskSegments != st.Segments || st.ActiveLen != 0 {
		t.Fatalf("want every ingested post in a disk segment: %+v", st)
	}
	snap := idx.Snapshot()
	var matched []microblog.TweetID // every post the disk tier holds
	for id := p.Corpus.NumTweets(); id < snap.NumTweets(); id++ {
		matched = append(matched, microblog.TweetID(id))
	}

	ranker := expertise.NewRanker(snap.NumUsers(), expertise.DefaultParams())
	raw := ranker.RawCandidatesInto(nil, snap, matched, true) // sizes raw and the arena
	if len(raw) == 0 {
		t.Fatal("no candidates extracted")
	}
	allocs := testing.AllocsPerRun(20, func() {
		raw = ranker.RawCandidatesInto(raw, snap, matched, true)
	})
	// Exactly 0 in a plain run. The bound leaves room for the race
	// detector, under which sync.Pool drops a quarter of its Puts and the
	// ranker re-makes its arena — a few objects per call, never per post.
	if allocs*32 >= float64(len(matched)) {
		t.Fatalf("extraction over %d disk-resident posts allocated %v times per call, want 0", len(matched), allocs)
	}
}

// TestDiskSnapshotPinning pins the unmap-under-reader rule: a snapshot
// acquired before a compaction replaces its disk segments keeps
// answering from them, the replaced file stays on disk for as long as
// any snapshot pins it, and it is deleted once the last reference is
// collected.
func TestDiskSnapshotPinning(t *testing.T) {
	p, _ := testPipeline(t)
	dir := t.TempDir()
	idx := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 16, CompactFanIn: 2, DisableCompactor: true,
		SpillDir: dir, SpillThreshold: 16,
	})
	defer idx.Close()

	posts := streamPosts(p, 71, 32)
	idx.IngestBatch(posts[:16])
	idx.Quiesce() // seals then spills segment 1
	if st := idx.Stats(); st.DiskSegments != 1 {
		t.Fatalf("after first quiesce: %+v, want 1 disk segment", st)
	}
	old := idx.Snapshot()
	oldMatch := append([]microblog.TweetID(nil), match(old, "49ers")...)

	idx.IngestBatch(posts[16:])
	idx.Quiesce() // merges disk segment 1 + in-memory segment 2 straight to disk
	st := idx.Stats()
	if st.Compactions == 0 || st.DiskSegments != 1 {
		t.Fatalf("after second quiesce: %+v, want a compaction into 1 disk segment", st)
	}

	// The old snapshot's segment left the layout, but the snapshot pins
	// it: identical answers, file still present (alongside the merged
	// segment's).
	again := match(old, "49ers")
	if len(again) != len(oldMatch) {
		t.Fatalf("pinned snapshot match changed: %d vs %d ids", len(again), len(oldMatch))
	}
	for i := range oldMatch {
		if again[i] != oldMatch[i] {
			t.Fatalf("pinned snapshot match changed at %d", i)
		}
	}
	if n := segFiles(t, dir); n != 2 {
		t.Fatalf("%d segment files while old snapshot pinned, want 2", n)
	}

	// Retire the snapshot: its GC cleanup releases the pin and the
	// replaced file goes away, leaving only the live merged segment.
	old, oldMatch, again = nil, nil, nil
	deadline := time.Now().Add(10 * time.Second)
	for segFiles(t, dir) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d segment files after snapshot retirement, want 1", segFiles(t, dir))
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDiskSpillFault drives every storage fault the chaos harness can
// inject through the spill path: the index must record the fault, pin
// the segment in memory, keep the spill directory free of half-written
// files — and rank exactly as if the disk tier did not exist.
func TestDiskSpillFault(t *testing.T) {
	p, sets := testPipeline(t)
	posts := streamPosts(p, 73, 200)

	heap := ingest.New(p.Corpus, ingest.Config{SealThreshold: 32, CompactFanIn: 3})
	defer heap.Close()
	heap.IngestBatch(posts)
	heap.Quiesce()
	liveHeap := core.NewLiveDetector(p.Collection, heap, p.Cfg.Online)

	for _, tc := range []struct {
		name string
		arm  func(*fault.DiskIO)
	}{
		{"open-refused", func(d *fault.DiskIO) { d.FailOpens(nil) }},
		{"mmap-refused", func(d *fault.DiskIO) { d.FailMmaps(nil) }},
		{"truncated", func(d *fault.DiskIO) { d.TruncateTo(100) }},
		{"corrupted", func(d *fault.DiskIO) { d.CorruptByte(200) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			io := fault.NewDiskIO()
			tc.arm(io)
			dir := t.TempDir()
			idx := ingest.New(p.Corpus, ingest.Config{
				SealThreshold: 32, CompactFanIn: 3,
				SpillDir: dir, SpillThreshold: 64, SpillIO: io,
			})
			defer idx.Close()
			idx.IngestBatch(posts)
			idx.Quiesce()

			st := idx.Stats()
			if st.SpillErrors == 0 {
				t.Fatalf("no spill errors recorded: %+v", st)
			}
			if st.DiskSegments != 0 || st.Spills != 0 {
				t.Fatalf("faulting disk tier accepted segments: %+v", st)
			}
			if n := segFiles(t, dir); n != 0 {
				t.Fatalf("%d segment files left behind by failed spills, want 0", n)
			}
			live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
			for _, set := range sets {
				for _, q := range set.Queries {
					got, _ := live.Search(q)
					want, _ := liveHeap.Search(q)
					expertsIdentical(t, tc.name, q, got, want)
				}
			}
		})
	}
}

// TestDiskMergeFault drives every storage fault through the all-disk
// merge, the compaction that assembles its file from the parts' encoded
// sections. Three disk segments line up as one run; with the fault
// armed, a quiesce must merge them. The merge makes at most one write
// attempt, counts one spill error and leaves the result in memory;
// the index ranks exactly like an all-in-memory one; and once the
// snapshots that pinned them retire, the three replaced segments drop
// their last reference and no segment or temporary file is left in the
// spill directory.
func TestDiskMergeFault(t *testing.T) {
	p, sets := testPipeline(t)
	posts := streamPosts(p, 227, 100) // three 32-post seals, then 4 in the tail

	heap := ingest.New(p.Corpus, ingest.Config{SealThreshold: 32, CompactFanIn: 3})
	defer heap.Close()
	heap.IngestBatch(posts)
	heap.Quiesce()
	liveHeap := core.NewLiveDetector(p.Collection, heap, p.Cfg.Online)

	for _, tc := range []struct {
		name string
		arm  func(*fault.DiskIO)
	}{
		{"open-refused", func(d *fault.DiskIO) { d.FailOpens(nil) }},
		{"mmap-refused", func(d *fault.DiskIO) { d.FailMmaps(nil) }},
		{"truncated", func(d *fault.DiskIO) { d.TruncateTo(100) }},
		{"corrupted", func(d *fault.DiskIO) { d.CorruptByte(200) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			io := fault.NewDiskIO()
			dir := t.TempDir()
			idx := ingest.New(p.Corpus, ingest.Config{
				SealThreshold: 32, CompactFanIn: 3, DisableCompactor: true,
				SpillDir: dir, SpillThreshold: 32, SpillIO: io,
			})
			defer idx.Close()
			idx.IngestBatch(posts[:96])
			idx.SpillAll()
			disks := idx.DiskSegments()
			if st := idx.Stats(); len(disks) != 3 || st.Segments != 3 {
				t.Fatalf("want a run of 3 disk segments: %+v", st)
			}

			tc.arm(io)
			opens := io.Opens()
			idx.IngestBatch(posts[96:])
			idx.Quiesce()
			st := idx.Stats()
			if st.Compactions != 1 || st.SpillErrors != 1 || st.Segments != 1 || st.DiskSegments != 0 {
				t.Fatalf("want one faulted all-disk merge left in memory: %+v", st)
			}
			if got := io.Opens() - opens; got > 1 {
				t.Fatalf("the faulted merge opened %d files: more than one write attempt", got)
			}
			live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
			for _, set := range sets {
				for _, q := range set.Queries {
					got, _ := live.Search(q)
					want, _ := liveHeap.Search(q)
					expertsIdentical(t, tc.name, q, got, want)
				}
			}

			deadline := time.Now().Add(10 * time.Second)
			for segFiles(t, dir) != 0 || disks[0].Refs() != 0 || disks[1].Refs() != 0 || disks[2].Refs() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d files in the spill directory, replaced segments hold %d, %d, %d references; want none",
						segFiles(t, dir), disks[0].Refs(), disks[1].Refs(), disks[2].Refs())
				}
				runtime.GC() // retired snapshots pin the replaced segments
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestDiskConcurrentIngestSearchCompaction is the disk-tier -race
// hammer: concurrent ingesters and searchers share an index whose
// background compactor is actively spilling and merging disk segments
// under them. Afterwards the quiesced index must match a cold detector
// rebuilt from its own final content.
func TestDiskConcurrentIngestSearchCompaction(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 16, CompactFanIn: 3,
		SpillDir: t.TempDir(), SpillThreshold: 32,
	})
	defer idx.Close()

	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	queries := []string{"49ers", "diabetes", "nfl", "dow futures", "coffee", "zzz-none"}

	const ingesters, perIngester = 2, 150
	const searchers, perSearcher = 4, 100
	var stop atomic.Bool
	errs := make(chan error, searchers)
	var wg sync.WaitGroup

	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(uint64(200+g)))
			for i := 0; i < perIngester; i++ {
				idx.Ingest(stream.Next())
			}
		}(g)
	}
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; i < perSearcher && !stop.Load(); i++ {
				snap := idx.Snapshot()
				if snap.Epoch() < lastEpoch {
					errs <- errInvariant("epoch went backwards")
					stop.Store(true)
					return
				}
				lastEpoch = snap.Epoch()
				live.Search(queries[(g+i)%len(queries)])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	idx.Quiesce()
	st := idx.Stats()
	if st.Ingested != ingesters*perIngester {
		t.Fatalf("ingested %d posts, want %d", st.Ingested, ingesters*perIngester)
	}
	if st.Spills == 0 {
		t.Fatalf("hammer never spilled: %+v", st)
	}

	snap := idx.Snapshot()
	all := append([]microblog.Tweet(nil), p.Corpus.Tweets()...)
	snap.Scan(p.Corpus.NumTweets(), snap.NumTweets(), func(tw *microblog.Tweet) { all = append(all, *tw) })
	cold := core.NewDetector(p.Collection, microblog.FromTweets(p.World, all), p.Cfg.Online)
	for _, q := range queries {
		got, _ := live.Search(q)
		want, _ := cold.Search(q)
		expertsIdentical(t, "post-hammer", q, got, want)
	}
}

// TestQuiesceIsSynchronousDrain pins the one-compactor rule: Quiesce
// and the background compactor never rewrite side by side. Every batch
// seals segments, which kicks the background compactor, and the writer
// quiesces straight after — the two drains start together. A forced
// collection retires older snapshots, unmapping replaced disk segments
// a second, racing compactor would still be reading. A returned
// Quiesce means nothing is mid-rewrite: the counters stand still, the
// spill directory holds exactly the live layout's files, and no
// rewrite ran twice — every segment file ever opened became a spill.
func TestQuiesceIsSynchronousDrain(t *testing.T) {
	p, _ := testPipeline(t)
	dir := t.TempDir()
	io := fault.NewDiskIO() // no fault armed: it counts the opens
	idx := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 8, CompactFanIn: 2,
		SpillDir: dir, SpillThreshold: 16, SpillIO: io,
	})
	defer idx.Close()

	// A second writer keeps sealing underneath, so drains also overlap
	// ingest; it stops before the assertions that need a still index.
	const rounds, perBatch = 60, 16
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(301))
		for i := 0; i < rounds*perBatch/2; i++ {
			idx.Ingest(stream.Next())
		}
	}()
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(300))
	batch := make([]microblog.Post, perBatch)
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			wg.Wait()
		}
		for i := range batch {
			batch[i] = stream.Next()
		}
		idx.IngestBatch(batch)
		idx.Quiesce()
		st := idx.Stats()
		runtime.GC()
		if r < rounds/2 {
			continue
		}
		if after := idx.Stats(); after != st {
			t.Fatalf("round %d: index kept rewriting after Quiesce returned:\n%+v\n%+v", r, st, after)
		}
	}

	st := idx.Stats()
	if st.Ingested != rounds*perBatch*3/2 || st.Spills == 0 || st.SpillErrors != 0 {
		t.Fatalf("hammer did not exercise the disk tier cleanly: %+v", st)
	}
	if io.Opens() != st.Spills {
		t.Fatalf("%d segment rewrites for %d spills: some merge ran twice", io.Opens(), st.Spills)
	}
	deadline := time.Now().Add(10 * time.Second)
	for segFiles(t, dir) != st.DiskSegments {
		if time.Now().After(deadline) {
			t.Fatalf("%d segment files for %d disk segments", segFiles(t, dir), st.DiskSegments)
		}
		runtime.GC() // retired snapshots still pin replaced files
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBacklogBoundedUnderFastWriter is the write-faster-than-drain bar
// of the backlog cap: one writer ingests 20,480 posts into a compacting,
// spilling index as fast as it can — half one post per call, half 512
// per call, each of which seals eight segments at once — and after
// every call returns no size tier holds the cap (2 × CompactFanIn) or
// more sealed segments. The quiesced index then answers every eval
// query bit-identically to a cold detector over the same posts.
func TestBacklogBoundedUnderFastWriter(t *testing.T) {
	p, sets := testPipeline(t)
	const n, batch = 20480, 512
	posts := streamPosts(p, 71, n)
	cfg := ingest.Config{SealThreshold: 64, CompactFanIn: 4, SpillDir: t.TempDir(), SpillThreshold: 256}
	idx := ingest.New(p.Corpus, cfg)
	defer idx.Close()
	limit := ingest.BacklogCap(cfg)
	for i := 0; i < n; {
		if i < n/2 {
			idx.Ingest(posts[i])
			i++
		} else {
			idx.IngestBatch(posts[i : i+batch])
			i += batch
		}
		if got := idx.FullestTier(); got >= limit {
			t.Fatalf("after %d posts a size tier holds %d sealed segments, cap %d", i, got, limit)
		}
	}
	st := idx.Stats()
	if st.WriterDrains == 0 || st.Spills == 0 {
		t.Fatalf("test did not exercise writer drains and the disk tier: %+v", st)
	}
	idx.Quiesce()

	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	cold := core.NewDetector(p.Collection, p.Corpus.ExtendedWith(posts), p.Cfg.Online)
	for _, set := range sets {
		for _, q := range set.Queries {
			gotES, gotTrace := live.Search(q)
			wantES, wantTrace := cold.Search(q)
			expertsIdentical(t, "esharp", q, gotES, wantES)
			if gotTrace.MatchedTweets != wantTrace.MatchedTweets {
				t.Fatalf("esharp %q: live matched %d tweets, cold %d", q, gotTrace.MatchedTweets, wantTrace.MatchedTweets)
			}
		}
	}
}

// TestDiskStaleFileCleanup pins the SpillDir ownership contract: a new
// index removes segment files a previous run left behind.
func TestDiskStaleFileCleanup(t *testing.T) {
	p, _ := testPipeline(t)
	dir := t.TempDir()
	idx := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 16, CompactFanIn: 2, DisableCompactor: true,
		SpillDir: dir, SpillThreshold: 16,
	})
	idx.IngestBatch(streamPosts(p, 79, 16))
	idx.Quiesce()
	if n := segFiles(t, dir); n != 1 {
		t.Fatalf("%d segment files after spill, want 1", n)
	}
	idx.Close() // no recovery: the file on disk is now garbage

	idx2 := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 16, CompactFanIn: 2, DisableCompactor: true,
		SpillDir: dir, SpillThreshold: 16,
	})
	defer idx2.Close()
	if n := segFiles(t, dir); n != 0 {
		t.Fatalf("%d stale segment files survived startup, want 0", n)
	}
}
