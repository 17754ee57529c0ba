// Package shard partitions the live post stream by author across N
// independent streaming indexes (internal/ingest), the scale-out step
// the single-node live index was designed for: web-scale expert-mining
// systems only reach millions of users by sharding the ingestion and
// scoring pipeline by user.
//
// A Cluster is the shard set: an ordered list of Backends — in-process
// Locals (New builds that topology over a base corpus), remote shards
// behind internal/transport, replica sets, in any mix. It routes every
// post to ShardOf(author, N) — a fixed avalanche hash of the author
// id, stable across processes and restarts, so a given author's posts
// always land on the same shard, in this process and the next one.
// Author affinity
// is the load-bearing property: a user's authored posts (and therefore
// the TS and RI feature denominators, which count the user's own tweets
// and the retweets they received) live entirely on one shard, so those
// per-shard ranking inputs are exact, not approximate. Mention counts
// are the exception — a post mentioning u lives on its author's shard —
// which is why the scatter-gather read path
// (core.ShardedLiveDetector) merges raw integer counters across shards
// (expertise.MergeRawNumerators, then Ranker.FinalizeRaw) before the
// single global ranking pass, keeping an N-shard query bit-identical to a
// single-node one.
//
// Each shard is a full ingest.Index: its own segments, compactor and
// epoch-tagged snapshots. The Cluster composes the per-shard epochs
// into a vector epoch (EpochVector) that the serving cache keys
// invalidation on: a cached result is stale as soon as any component
// advances.
package shard

import (
	"fmt"
	"path/filepath"

	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/world"
)

// ShardOf maps an author to a shard in [0, n). The hash is a fixed
// 64-bit avalanche mix (splitmix64's finalizer) of the author id — no
// process state, no seed — so the assignment is a pure function of
// (author, n) and survives restarts; the routing property tests pin
// golden values against accidental constant changes.
func ShardOf(u world.UserID, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(u)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Partition returns the slice of base that shard i of n owns: exactly
// the tweets whose author hashes to i. New partitions its base corpus
// with it, and cmd/shardd uses it directly so a shard process rebuilt
// from the same deterministic pipeline starts from the identical base
// slice the in-process cluster would give that shard.
func Partition(base *microblog.Corpus, i, n int) *microblog.Corpus {
	var part []microblog.Tweet
	for _, tw := range base.Tweets() {
		if ShardOf(tw.Author, n) == i {
			part = append(part, tw)
		}
	}
	return microblog.FromTweets(base.World(), part)
}

// ShardConfig returns cfg as shard i's index takes it: a disk tier is
// moved to the shard's own <SpillDir>/shard-<i>, because an index owns
// its spill directory and two indexes sharing one collide on segment
// file names. Without a disk tier cfg is returned unchanged.
func ShardConfig(cfg ingest.Config, i int) ingest.Config {
	if cfg.SpillDir != "" {
		cfg.SpillDir = filepath.Join(cfg.SpillDir, fmt.Sprintf("shard-%d", i))
	}
	return cfg
}

// New builds the all-local cluster: n (at least 1) streaming indexes
// configured by cfg — shard i by ShardConfig(cfg, i) — each behind a
// Local, with the frozen base corpus partitioned by author so shard i
// starts from exactly the base tweets whose author hashes to i. The
// union of the shards' content therefore always equals base plus
// everything ingested — the invariant the bit-identical equivalence bar
// is stated over. Close the cluster to stop the shards' compactors.
func New(base *microblog.Corpus, n int, cfg ingest.Config) *Cluster {
	n = max(n, 1)
	backends := make([]Backend, n)
	for i := range backends {
		backends[i] = NewLocal(ingest.New(Partition(base, i, n), ShardConfig(cfg, i)))
	}
	return NewCluster(base.World(), backends...)
}
