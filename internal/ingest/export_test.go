package ingest

import (
	"slices"

	"repro/internal/diskseg"
	"repro/internal/microblog"
	"repro/internal/world"
)

// ScanStatsInto is the reference StatsInto is checked against: the
// same base and segment counters, then one pass over every post of the
// view's tail, each author and mention binary-searched in users
// (strictly ascending) — the O(tail) loop the generation's user index
// replaced.
func (s *Snapshot) ScanStatsInto(dst []microblog.UserStats, users []world.UserID) []microblog.UserStats {
	dst = s.sealedStatsInto(dst, users)
	for j := range s.tail {
		tw := &s.tail[j]
		if i, ok := slices.BinarySearch(users, tw.Author); ok {
			dst[i].Tweets++
			dst[i].Retweets += tw.RetweetCount
		}
		for _, m := range tw.Mentions {
			if i, ok := slices.BinarySearch(users, m); ok {
				dst[i].Mentions++
			}
		}
	}
	return dst
}

// FullestTier returns how many sealed segments the most crowded size
// tier holds — what the backlog cap bounds.
func (i *Index) FullestTier() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	perTier := map[int]int{}
	most := 0
	for _, sg := range i.sealed {
		t := i.tier(sg)
		perTier[t]++
		most = max(most, perTier[t])
	}
	return most
}

// BacklogCap is the per-tier sealed-segment count no write leaves behind
// on a compacting index built with cfg.
func BacklogCap(cfg Config) int { return backlogFactor * cfg.CompactFanIn }

// SpillAll writes every eligible in-memory segment to disk and compacts
// nothing, so a test can line up a run of disk segments for one merge.
func (i *Index) SpillAll() {
	i.compactMu.Lock()
	defer i.compactMu.Unlock()
	for i.spillOnce() {
	}
}

// DiskSegments returns the disk segments of the live layout.
func (i *Index) DiskSegments() []*diskseg.Segment {
	i.mu.Lock()
	defer i.mu.Unlock()
	var disks []*diskseg.Segment
	for _, sg := range i.sealed {
		if sg.OnDisk() {
			disks = append(disks, sg.Segment)
		}
	}
	return disks
}

// MergeLayout runs the compaction merge over the whole sealed layout as
// one run, without publishing the result, and releases what it built:
// one compaction's work, for the benchmarks.
func (i *Index) MergeLayout() error {
	i.compactMu.Lock()
	defer i.compactMu.Unlock()
	i.mu.Lock()
	run := i.sealed
	i.mu.Unlock()
	merged, err := i.mergeRun(run)
	if err != nil {
		return err
	}
	merged.Release()
	return nil
}
