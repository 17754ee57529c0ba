package ingest

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
