package core

import (
	"sync"
	"testing"

	"repro/internal/ingest"
	"repro/internal/race"
	"repro/internal/shard"
	"repro/internal/textutil"
)

var fanoutQueries = []string{
	"49ers", "49ers schedule", "diabetes", "nfl", "dow futures",
	"sarah palin", "world war i", "coffee", "zzz-none",
}

// TestDetectorConcurrentSearch hammers one detector from many
// goroutines — run under the race detector by `make race` — and checks
// every response against precomputed answers.
func TestDetectorConcurrentSearch(t *testing.T) {
	p := tinyPipeline(t)
	det := NewDetector(p.Collection, p.Corpus, p.Cfg.Online)
	type answer struct {
		users   []int32
		matched int
	}
	want := make(map[string]answer, len(fanoutQueries))
	for _, q := range fanoutQueries {
		res, trace := det.Search(q)
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
				res, trace := det.Search(q)
				exp := want[q]
				if trace.MatchedTweets != exp.matched || len(res) != len(exp.users) {
					errs <- "mismatch for " + q
					return
				}
				for j, e := range res {
					if int32(e.User) != exp.users[j] {
						errs <- "user mismatch for " + q
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSerialScatterAllocs pins the served scatter's per-shard increment
// at zero: with the default config a search over N in-process shards
// allocates exactly what it does over one, and that is only the answer
// (one slice per non-empty ranking) plus the canonical key of a query
// whose tokens arrive out of order. A closure, a goroutine or a
// per-shard make on either phase shows up here. Skipped under -race,
// where sync.Pool drops Puts and pooled scratch is rebuilt.
func TestSerialScatterAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	p := tinyPipeline(t)
	cfg := p.Cfg.Online
	icfg := ingest.DefaultConfig()
	icfg.DisableCompactor = true
	perN := map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		c := shard.New(p.Corpus, n, icfg)
		d := NewShardedLiveDetectorOver(p.Collection, c, cfg)
		bound := 0
		for _, q := range fanoutQueries { // also warms every pool
			if res, _ := d.Search(q); len(res) > 0 {
				bound++
			}
			if textutil.Canonical(q) != q {
				bound++
			}
		}
		perN[n] = testing.AllocsPerRun(50, func() {
			for _, q := range fanoutQueries {
				d.Search(q)
			}
		})
		c.Close()
		if perN[n] > float64(bound) {
			t.Errorf("N=%d: %v allocs per pass of %d queries, want ≤ %d (answers + canonical keys)",
				n, perN[n], len(fanoutQueries), bound)
		}
	}
	if perN[2] != perN[1] || perN[4] != perN[1] {
		t.Errorf("allocs per pass grow with the shard count: N=1 %v, N=2 %v, N=4 %v", perN[1], perN[2], perN[4])
	}
}
