package core

import (
	"sync"
	"testing"

	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/race"
	"repro/internal/textutil"
)

var fanoutQueries = []string{
	"49ers", "49ers schedule", "diabetes", "nfl", "dow futures",
	"sarah palin", "world war i", "coffee", "zzz-none",
}

// TestDetectorConcurrentSearch hammers one detector from many
// goroutines — run under the race detector by `make race` — and checks
// every response against precomputed answers: the cold Detector, and
// the served detector over two shards with every ranking handed back
// through Recycle once checked, so concurrent queries rank into each
// other's returned rankings.
func TestDetectorConcurrentSearch(t *testing.T) {
	p := tinyPipeline(t)
	icfg := ingest.DefaultConfig()
	icfg.DisableCompactor = true
	c := localCluster(t, p, 2, icfg)
	defer c.Close()
	served := NewShardedLiveDetectorOver(p.Collection, c, p.Cfg.Online)
	for _, d := range []struct {
		name    string
		search  func(string) ([]expertise.Expert, SearchTrace)
		recycle func([]expertise.Expert)
	}{
		{"cold", NewDetector(p.Collection, p.Corpus, p.Cfg.Online).Search, func([]expertise.Expert) {}},
		{"served N=2, recycled", served.Search, served.Recycle},
	} {
		type answer struct {
			users   []int32
			matched int
		}
		want := make(map[string]answer, len(fanoutQueries))
		for _, q := range fanoutQueries {
			res, trace := d.search(q)
			a := answer{matched: trace.MatchedTweets}
			for _, e := range res {
				a.users = append(a.users, int32(e.User))
			}
			want[q] = a
		}

		const workers, rounds = 8, 50
		errs := make(chan string, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					q := fanoutQueries[(w+i)%len(fanoutQueries)]
					res, trace := d.search(q)
					exp := want[q]
					if trace.MatchedTweets != exp.matched || len(res) != len(exp.users) {
						errs <- d.name + ": mismatch for " + q
						return
					}
					for j, e := range res {
						if int32(e.User) != exp.users[j] {
							errs <- d.name + ": user mismatch for " + q
							return
						}
					}
					d.recycle(res)
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatal(msg)
		}
	}
}

// TestSerialScatterAllocs pins the served scatter's per-shard increment
// at zero: with the default config a search over N in-process shards
// allocates exactly what it does over one, and that is only the answer
// (one slice per non-empty ranking) plus the canonical key of a query
// whose tokens arrive out of order — and once each ranking is handed
// back through Recycle, nothing at all: the next query ranks into it,
// and Expand builds every canonical form here in a stack buffer. A
// closure, a goroutine or a per-shard make on either phase shows up
// here. Skipped under -race, where sync.Pool drops Puts and pooled
// scratch is rebuilt.
func TestSerialScatterAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	p := tinyPipeline(t)
	cfg := p.Cfg.Online
	icfg := ingest.DefaultConfig()
	icfg.DisableCompactor = true
	perN, recycledN := map[int]float64{}, map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		c := localCluster(t, p, n, icfg)
		d := NewShardedLiveDetectorOver(p.Collection, c, cfg)
		keys, answers := 0, 0
		for _, q := range fanoutQueries { // also warms every pool
			if res, _ := d.Search(q); len(res) > 0 {
				answers++
			}
			if textutil.Canonical(q) != q {
				keys++
			}
		}
		perN[n] = testing.AllocsPerRun(50, func() {
			for _, q := range fanoutQueries {
				d.Search(q)
			}
		})
		recycledN[n] = testing.AllocsPerRun(50, func() {
			for _, q := range fanoutQueries {
				res, _ := d.Search(q)
				d.Recycle(res)
			}
		})
		c.Close()
		if perN[n] > float64(answers+keys) {
			t.Errorf("N=%d: %v allocs per pass of %d queries, want ≤ %d (answers + canonical keys)",
				n, perN[n], len(fanoutQueries), answers+keys)
		}
		if recycledN[n] != 0 {
			t.Errorf("N=%d: %v allocs per pass of %d queries whose rankings go back, want 0",
				n, recycledN[n], len(fanoutQueries))
		}
	}
	for _, m := range []map[int]float64{perN, recycledN} {
		if m[2] != m[1] || m[4] != m[1] {
			t.Errorf("allocs per pass grow with the shard count: N=1 %v, N=2 %v, N=4 %v", m[1], m[2], m[4])
		}
	}
}

// TestRecycleKeepsOnlyCappedRankings checks what the free list keeps: a
// capped detector's next query ranks into the ranking just handed back,
// and an uncapped one's (MaxResults 0: a ranking as long as its
// candidate pool) is left to the collector.
func TestRecycleKeepsOnlyCappedRankings(t *testing.T) {
	p := tinyPipeline(t)
	icfg := ingest.DefaultConfig()
	icfg.DisableCompactor = true
	for _, maxResults := range []int{15, 0} {
		cfg := p.Cfg.Online
		cfg.Expertise.MaxResults = maxResults
		c := localCluster(t, p, 2, icfg)
		d := NewShardedLiveDetectorOver(p.Collection, c, cfg)
		first, _ := d.Search("49ers")
		if len(first) == 0 {
			t.Fatal(`"49ers" ranked nobody`)
		}
		d.Recycle(first)
		next, _ := d.Search("49ers")
		c.Close()
		if reused := &next[0] == &first[0]; reused != (maxResults > 0) {
			t.Errorf("MaxResults %d: next ranking reuses the one handed back: %v", maxResults, reused)
		}
	}
}
