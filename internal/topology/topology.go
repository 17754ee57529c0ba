// Package topology wires a coordinator's shard set from a description
// of its layout: the shards, and for each one the members holding its
// content — in-process streaming indexes or shardd processes at an
// address — primary first. It is the one place such a description
// becomes a shard.Cluster: cmd/gateway wires its -shards and -remote
// flags through it, and the root package's topology matrix wires every
// layout the equivalence spine is checked over through it, so the
// layouts the tests hold to the bar are built by the code that serves.
package topology

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/world"
)

// Member is one copy of a shard's content: an in-process streaming
// index when Addr is empty, otherwise the address of a shardd serving
// the shard.
type Member struct {
	Addr string
}

// Topology lists each shard's members, primary first. Shard i holds the
// authors shard.ShardOf routes to i of len(t) shards.
type Topology [][]Member

// InProcess returns n shards of r in-process members each.
func InProcess(n, r int) Topology {
	t := make(Topology, n)
	for i := range t {
		t[i] = make([]Member, r)
	}
	return t
}

// Parse reads the -remote syntax: shards separated by ',', the members
// of one shard by '|', primary first, each an address — "a|b,c|d" is
// two shards of two replicas each.
func Parse(s string) (Topology, error) {
	var t Topology
	for i, group := range strings.Split(s, ",") {
		var members []Member
		for _, addr := range strings.Split(group, "|") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("topology: %q: shard %d names an empty address", s, i)
			}
			members = append(members, Member{Addr: addr})
		}
		t = append(t, members)
	}
	return t, nil
}

// Build wires t over the base content of world w and returns its
// cluster; Close on it tears down everything Build made.
//
// An in-process member is a streaming index over
// shard.PartitionTweets(w, posts, i, n) configured by icfg, with its
// own spill directory: the shard's <SpillDir>/shard-<i>
// (shard.ShardConfig) for the primary, and
// <SpillDir>/shard-<i>-replica-<j> for follower j. An address is dialed
// and handshaken — shard index, shard count, world size and base slice
// must match, the slice's size being the sum of counts[u], each user
// u's base post count, over the users shard.ShardOf routes to i — so a
// mis-deployed shardd fails here instead of skewing rankings later.
// Only in-process members read posts and only remote ones read counts:
// an all-remote topology needs no post, an all-local one no count.
// Shards are dialed in order, members primary first. A shard of more
// than one member becomes a replica.Set. reg, when non-nil, receives
// the client and replica accounting; the indexes report to icfg.Obs. On
// any failure every member already built is closed and the error names
// the offending shard and member.
func (t Topology) Build(w *world.World, counts []int, posts []microblog.Tweet, icfg ingest.Config, reg *obs.Registry) (*shard.Cluster, error) {
	n := len(t)
	if n == 0 {
		return nil, errors.New("topology: no shards")
	}
	ccfg := transport.DefaultClientConfig()
	ccfg.Obs = reg
	rcfg := replica.DefaultConfig()
	rcfg.Obs = reg

	var built []shard.Backend // every member, for the cleanup on failure
	fail := func(err error) (*shard.Cluster, error) {
		for _, b := range built {
			b.Close()
		}
		return nil, err
	}
	var baseSizes []int // per-shard base tweets, summed once for the handshakes
	backends := make([]shard.Backend, n)
	for i, members := range t {
		if len(members) == 0 {
			return fail(fmt.Errorf("topology: shard %d has no members", i))
		}
		var part *microblog.Corpus
		first := len(built)
		for j, m := range members {
			if m.Addr == "" {
				if part == nil {
					part = shard.PartitionTweets(w, posts, i, n)
				}
				built = append(built, shard.NewLocal(ingest.New(part, memberConfig(icfg, i, j))))
				continue
			}
			if baseSizes == nil {
				if len(counts) != len(w.Users) {
					return fail(fmt.Errorf("topology: %d base counts for a world of %d users", len(counts), len(w.Users)))
				}
				baseSizes = partitionSizes(counts, n)
			}
			c := transport.NewRemoteShard(m.Addr, ccfg)
			if err := c.Handshake(i, n, len(w.Users), baseSizes[i]); err != nil {
				c.Close()
				return fail(fmt.Errorf("topology: shard %d member %s: %w", i, m.Addr, err))
			}
			built = append(built, c)
		}
		if reps := built[first:]; len(reps) == 1 {
			backends[i] = reps[0]
		} else {
			set, err := replica.NewSet(reps, rcfg)
			if err != nil {
				return fail(err)
			}
			backends[i] = set
		}
	}
	return shard.NewCluster(w, backends...), nil
}

// memberConfig returns icfg as member j of shard i takes it: two
// indexes must not share a spill directory.
func memberConfig(icfg ingest.Config, i, j int) ingest.Config {
	cfg := shard.ShardConfig(icfg, i)
	if j > 0 && cfg.SpillDir != "" {
		cfg.SpillDir += fmt.Sprintf("-replica-%d", j)
	}
	return cfg
}

// partitionSizes sums the per-user base counts into the base size of
// each of n shards: the handshake's figure, without a post in hand.
func partitionSizes(counts []int, n int) []int {
	sizes := make([]int, n)
	for u, c := range counts {
		sizes[shard.ShardOf(world.UserID(u), n)] += c
	}
	return sizes
}
