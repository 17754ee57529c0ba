// The storage tier of the streaming index. A sealed segment lives in
// exactly one of two tiers: in-heap (corpus-backed, the only tier
// before PR 10) or on-disk (an mmap-backed diskseg.Segment in the
// compact compressed format). The tier methods below are the single
// seam the snapshot read path and the compactor go through, so neither
// ever branches on tier anywhere else — which is what keeps the
// equivalence spine one property: a quiesced index ranks bit-identical
// to a cold rebuild regardless of where its segments live.
//
// Tiering policy. When Config.SpillDir is set, the background
// compactor rewrites any in-heap sealed segment holding at least
// Config.SpillThreshold posts into the on-disk format (spillOnce), and
// every compaction merge whose result crosses the same threshold
// writes its output directly to disk — compaction becomes a
// disk-format rewrite, and a long-running index converges to a handful
// of large cold segments on disk plus small hot ones in heap. A run
// wholly on disk never leaves the format: its file is assembled from
// the parts' encoded sections (mergeRun).
//
// Pinning. Disk segments are refcounted (see diskseg): the live layout
// holds one reference, and every published snapshot that includes the
// segment takes another, released by a GC cleanup when the snapshot is
// retired. A compaction that drops a disk segment from the layout only
// releases the layout's reference — readers still running against
// older snapshots keep the map (and the file) alive, and the file is
// deleted when the last snapshot lets go. A spill that fails (disk
// full, I/O fault) marks the segment noSpill and leaves it in heap:
// degraded capacity, never a wrong ranking.
package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/diskseg"
	"repro/internal/microblog"
	"repro/internal/world"
)

// numTweets returns the segment's post count regardless of tier.
func (sg *segment) numTweets() int {
	if sg.disk != nil {
		return sg.disk.NumTweets()
	}
	return sg.corpus.NumTweets()
}

// matchAppend runs the zero-copy matcher of the segment's tier over an
// already tokenized query.
func (sg *segment) matchAppend(tokens []string, buf []microblog.TweetID) []microblog.TweetID {
	if sg.disk != nil {
		return sg.disk.MatchTokensAppend(tokens, buf)
	}
	return sg.corpus.MatchTokensAppend(tokens, buf)
}

// features returns the ranking features of the post with the given
// segment-local id: in-heap fields, or rows read in place off the map.
func (sg *segment) features(id microblog.TweetID, hashtag bool, scratch *[]world.UserID) (world.UserID, int, bool, []world.UserID) {
	if sg.disk != nil {
		return sg.disk.Features(id, hashtag, scratch)
	}
	return sg.corpus.Features(id, hashtag, scratch)
}

// tweet returns the whole post with the given segment-local id (log
// paging; ranking reads features).
func (sg *segment) tweet(id microblog.TweetID) *microblog.Tweet {
	if sg.disk != nil {
		return sg.disk.Tweet(id)
	}
	return sg.corpus.Tweet(id)
}

// numTweetsBy returns the segment's authored-post count for one user.
func (sg *segment) numTweetsBy(u world.UserID) int {
	if sg.disk != nil {
		return sg.disk.NumTweetsBy(u)
	}
	return sg.corpus.NumTweetsBy(u)
}

// numMentionsOf returns the segment's mentions-received count.
func (sg *segment) numMentionsOf(u world.UserID) int {
	if sg.disk != nil {
		return sg.disk.NumMentionsOf(u)
	}
	return sg.corpus.NumMentionsOf(u)
}

// numRetweetsOf returns the segment's retweets-received count.
func (sg *segment) numRetweetsOf(u world.UserID) int {
	if sg.disk != nil {
		return sg.disk.NumRetweetsOf(u)
	}
	return sg.corpus.NumRetweetsOf(u)
}

// part returns the segment as a compaction input: both tiers yield
// their posts, their terms with posting counts and each term's
// postings, which is all microblog.Merge reads.
func (sg *segment) part() microblog.Part {
	if sg.disk != nil {
		return sg.disk
	}
	return sg.corpus
}

// releaseLayoutRef drops the live layout's reference when the segment
// leaves it. In-heap segments are plain garbage; disk segments may
// stay mapped for as long as older snapshots pin them.
func (sg *segment) releaseLayoutRef() {
	if sg.disk != nil {
		sg.disk.Release()
	}
}

// spillEnabled reports whether the disk tier is configured.
func (i *Index) spillEnabled() bool {
	return i.cfg.SpillDir != "" && i.cfg.SpillThreshold > 0
}

// mergeRun builds the segment that replaces a compaction run. A run
// wholly on disk merges in the disk format: diskseg.WriteMerged
// assembles the new file from the parts' encoded sections and no post
// is decoded into heap. Any other run merges in heap — the parts' posts
// back to back, their posting lists concatenated, nothing re-indexed
// (microblog.Merge) — and a result past the spill threshold is then
// written to disk. Either way the file is the same, byte for byte. A
// run makes at most one write: a faulted one (returned) leaves the heap
// merge in place, pinned there (noSpill), with results unchanged.
func (i *Index) mergeRun(run []*segment) (*segment, error) {
	start := run[0].start
	n := 0
	disks := make([]*diskseg.Segment, 0, len(run))
	for _, sg := range run {
		n += sg.numTweets()
		if sg.disk != nil {
			disks = append(disks, sg.disk)
		}
	}
	var err error
	if len(disks) == len(run) {
		// Every disk segment holds at least SpillThreshold posts, so the
		// merge is past the threshold too.
		var disk *diskseg.Segment
		if disk, err = i.writeSpill(n, func(path string) error { return diskseg.WriteMerged(path, disks) }); err == nil {
			return &segment{start: start, disk: disk}, nil
		}
	}
	parts := make([]microblog.Part, len(run))
	for j, sg := range run {
		parts[j] = sg.part()
	}
	c := microblog.Merge(i.w, parts)
	if err == nil && i.spillEnabled() && n >= i.cfg.SpillThreshold {
		var disk *diskseg.Segment
		if disk, err = i.writeSpill(n, func(path string) error { return diskseg.Write(path, c) }); err == nil {
			return &segment{start: start, disk: disk}, nil
		}
	}
	return &segment{start: start, corpus: c, noSpill: err != nil}, err
}

// writeSpill writes a fresh n-post on-disk segment with write and opens
// it. The file is named by a monotonic sequence so a merged segment
// never collides with the (still pinned) segments it replaces; it is
// deleted when the last reference releases it.
func (i *Index) writeSpill(n int, write func(path string) error) (*diskseg.Segment, error) {
	i.mu.Lock()
	i.spillSeq++
	seq := i.spillSeq
	i.mu.Unlock()
	path := filepath.Join(i.cfg.SpillDir, fmt.Sprintf("seg-%06d-%d.esg", seq, n))
	if err := write(path); err != nil {
		return nil, err
	}
	disk, err := diskseg.Open(path, diskseg.Options{
		IO:         i.cfg.SpillIO,
		BlockCache: i.cfg.SpillBlockCache,
		Obs:        i.cfg.Obs,
	})
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	disk.RemoveOnRelease()
	return disk, nil
}

// spillOnce rewrites the first eligible in-heap sealed segment to the
// disk tier and publishes the new layout. It reports whether it should
// be called again (it made progress or hit a fault it recorded). The
// expensive rewrite runs outside mu — the segment is immutable and,
// with compactMu held by the caller, stays at the position it was
// found at, exactly like compactOnce's run.
func (i *Index) spillOnce() bool {
	if !i.spillEnabled() {
		return false
	}
	i.mu.Lock()
	at := -1
	for j, sg := range i.sealed {
		if sg.disk == nil && !sg.noSpill && sg.corpus.NumTweets() >= i.cfg.SpillThreshold {
			at = j
			break
		}
	}
	if at < 0 {
		i.mu.Unlock()
		return false
	}
	target := i.sealed[at]
	i.mu.Unlock()

	c := target.corpus
	disk, err := i.writeSpill(c.NumTweets(), func(path string) error { return diskseg.Write(path, c) })

	i.mu.Lock()
	defer i.mu.Unlock()
	if err != nil {
		// Spill faulted: stay in heap, never retry this segment (a
		// compaction absorbing it will try again at the merge), count
		// the fault. Results are unaffected — the heap tier keeps
		// serving exactly what the disk tier would have.
		target.noSpill = true
		i.spillErrors++
		i.obsSpillErrors.Inc()
		return true
	}
	// Copy before the store: published snapshots alias the old array.
	i.sealed = slices.Clone(i.sealed)
	i.sealed[at] = &segment{start: target.start, disk: disk}
	i.spills++
	i.obsSpills.Inc()
	i.publishLocked()
	return true
}
