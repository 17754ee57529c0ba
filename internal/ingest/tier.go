// The storage tier of the streaming index. Every sealed segment is a
// diskseg.Segment: a seal encodes the active segment in memory
// (diskseg.EncodeIndexed, diskseg.Load), a compaction merges its run's
// encoded sections (diskseg.EncodeMerged), and a spill writes an
// image's bytes to a file and maps it. Nothing branches on where a
// segment's bytes live — a mapped segment is read exactly as an
// in-memory one, block decodes straight off the image — which keeps
// the equivalence spine one property: a quiesced index ranks
// bit-identical to a cold rebuild wherever they are.
//
// Tiering policy. When Config.SpillDir is set, the background
// compactor writes any in-memory ingested segment holding at least
// Config.SpillThreshold posts to a file and maps it (spillOnce), and
// every compaction merge whose result crosses the same threshold goes
// straight to a file — a long-running index converges to a handful of
// large mapped segments plus small in-memory ones.
//
// Pinning. Mapped segments are refcounted (see diskseg): the live
// layout holds one reference, and every published snapshot that
// includes the segment takes another, released by a GC cleanup when the
// snapshot is retired. A compaction that drops a mapped segment from
// the layout only releases the layout's reference — readers still
// running against older snapshots keep the map (and the file) alive,
// and the file is deleted when the last snapshot lets go. An in-memory
// segment needs no pin: a snapshot that holds it keeps it reachable. A
// spill that fails (disk full, I/O fault) marks the segment noSpill and
// leaves it in memory: degraded capacity, never a wrong ranking.
package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/diskseg"
)

// spillEnabled reports whether the disk tier is configured.
func (i *Index) spillEnabled() bool {
	return i.cfg.SpillDir != "" && i.cfg.SpillThreshold > 0
}

// encoded serves a freshly encoded image as an in-memory sealed
// segment. Every post's retweet count must fit the format (see
// Index.Ingest), so an encode error is a bug.
func (i *Index) encoded(img []byte, err error) *diskseg.Segment {
	if err != nil {
		panic(fmt.Sprintf("ingest: encode: %v", err))
	}
	return i.load(img)
}

// load serves an image the index encoded itself from memory; a refusal
// is an encoder bug.
func (i *Index) load(img []byte) *diskseg.Segment {
	seg, err := diskseg.Load(img)
	if err != nil {
		panic(fmt.Sprintf("ingest: a freshly encoded segment does not load: %v", err))
	}
	return seg
}

// mergeRun builds the segment that replaces a compaction run: the
// parts' encoded sections merged into one image (diskseg.EncodeMerged)
// — posting lists concatenated, nothing re-indexed, no post decoded
// into heap. A result past the spill threshold is written to a file and
// mapped; any other is loaded in memory. A run makes at most one write:
// a faulted one (returned) leaves the result in memory, pinned there
// (noSpill), with results unchanged.
func (i *Index) mergeRun(run []*segment) (*segment, error) {
	parts := make([]*diskseg.Segment, len(run))
	n := 0
	for j, sg := range run {
		parts[j] = sg.Segment
		n += sg.NumTweets()
	}
	img, err := diskseg.EncodeMerged(parts)
	if err != nil {
		// The parts share the index's world and every count they hold
		// was encodable when they were sealed; only a broken invariant
		// gets here.
		panic(fmt.Sprintf("ingest: compaction merge: %v", err))
	}
	merged := &segment{start: run[0].start}
	if i.spillEnabled() && n >= i.cfg.SpillThreshold {
		if merged.Segment, err = i.writeSpill(n, func(path string) error { return diskseg.WriteFile(path, img) }); err == nil {
			return merged, nil
		}
		merged.noSpill = true
	}
	merged.Segment = i.load(img)
	return merged, err
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
	disk, err := diskseg.Open(path, i.cfg.SpillIO)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	disk.RemoveOnRelease()
	return disk, nil
}

// spillOnce writes the first eligible in-memory sealed segment's image
// to a file, maps it and publishes the new layout. It reports whether it
// should be called again (it made progress or hit a fault it recorded).
// The write runs outside mu — the segment is immutable and, with
// compactMu held by the caller, stays at the position it was found at,
// exactly like compactOnce's run.
func (i *Index) spillOnce() bool {
	if !i.spillEnabled() {
		return false
	}
	i.mu.Lock()
	at := -1
	for j, sg := range i.sealed {
		if !sg.OnDisk() && !sg.noSpill && sg.NumTweets() >= i.cfg.SpillThreshold {
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

	disk, err := i.writeSpill(target.NumTweets(), target.WriteFile)

	i.mu.Lock()
	defer i.mu.Unlock()
	if err != nil {
		// Spill faulted: stay in memory, never retry this segment (a
		// compaction absorbing it will try again at the merge), count
		// the fault. Results are unaffected — the in-memory image
		// serves exactly what the file would have.
		target.noSpill = true
		i.spillErrors++
		return true
	}
	// Copy before the store: published snapshots alias the old array.
	i.sealed = slices.Clone(i.sealed)
	i.sealed[at] = &segment{start: target.start, Segment: disk}
	i.spills++
	i.publishLocked()
	target.Release()
	return true
}
