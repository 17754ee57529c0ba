package main

import (
	"math/rand"
)

// Run shape shared by every workload: work is fixed by count, not by
// time. A run is one discarded warm-up round plus measuredRounds rounds
// of the same seed-determined op sequence, and every timing metric is
// the median of the per-round values — a single round is exposed to
// whatever else the sandbox schedules, the median of ten is not.
const (
	measuredRounds = 10
	// refSeconds is BENCHMARK.json's run_seconds: the per-round op counts
	// below are sized so that the measured rounds take about this long
	// on the 2-vCPU reference sandbox. -seconds scales the counts
	// linearly from here, so equal -seconds means equal work.
	refSeconds = 12
	// setupRepeats is how many times a run boots and preloads the whole
	// deployment; setup_s is the median, as the benchmark contract asks
	// of a set-up time (one set-up is one sample of a second or less on
	// a sandbox whose neighbours come and go). Only the last deployment
	// is measured.
	setupRepeats = 3
)

// workload is one deployment topology plus the load driven at it.
type workload struct {
	name string
	// Topology.
	shards int  // shardd processes behind the gateway
	cache  int  // gateway -cache (serve result-cache entries; 0 disables)
	disk   bool // shardd -data-dir: sealed segments spill to the disk tier
	// preload posts are ingested and quiesced before the first search,
	// exactly preload/shards on each shard: a shard's segment layout —
	// and with it the cost of every search — depends on how many posts
	// it holds, so the split may not wander with the seed.
	preload int
	// Read-only load, per round at -seconds = refSeconds: the clients
	// share passesPerRound walks over the whole seed-shuffled pool, so
	// every round asks every query equally often whatever the seed.
	passesPerRound int
	// Mixed load (mixed_ingest only): every client repeats {one
	// IngestBatch of writeBatch posts, searchesPerCycle searches drawn
	// Zipf(1.1) over the pool}, cyclesPerRound times in all per round.
	// Zero writeBatch means a read-only workload whose content stays
	// quiesced, so every answer is also compared against the reference.
	writeBatch       int
	searchesPerCycle int
	cyclesPerRound   int
}

func (w *workload) quiesced() bool { return w.writeBatch == 0 }

// workloads are the four traffic mixes. Sizes are relative to the two
// caches of the system: the serve result cache (4096 entries against a
// 140-query pool, so everything fits) and the diskseg block LRU (256
// blocks per segment: a 20k-post spill fits, an 80k-post spill thrashes).
var workloads = []*workload{
	{
		name:   "hot_cache",
		shards: 1, cache: 4096, preload: 20000,
		passesPerRound: 120,
	},
	{
		name:   "cold_heap",
		shards: 2, cache: 0, preload: 80000,
		passesPerRound: 12,
	},
	{
		name:   "cold_disk",
		shards: 1, cache: 0, disk: true, preload: 80000,
		passesPerRound: 1,
	},
	{
		name:   "mixed_ingest",
		shards: 1, cache: 4096, preload: 20000,
		writeBatch: 8, searchesPerCycle: 16, cyclesPerRound: 300,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// plan is the load of one run, fixed before the first process starts.
type plan struct {
	clients int
	// ops[c] is client c's query sequence for one round (indices into
	// the pool); every round replays it.
	ops [][]int
	// cycles[c] is the number of write+search cycles client c runs per
	// round (nil for read-only workloads).
	cycles []int
	// The warm-up round replays only a prefix of each sequence — two
	// passes' worth of the pool per client, enough to fill every cache
	// the workload can fill — so that setup_s, which ends with it,
	// measures set-up and not steady-state throughput.
	warmOps, warmCycles []int
}

// roundShape returns how many ops and cycles of client c's sequence
// round r replays (round 0 is the warm-up).
func (p *plan) roundShape(r, c int) (ops, cycles int) {
	if r == 0 {
		return p.warmOps[c], p.warmCycles[c]
	}
	return len(p.ops[c]), p.cycles[c]
}

// searchesPerRound is the total over clients.
func (p *plan) searchesPerRound() int {
	n := 0
	for _, o := range p.ops {
		n += len(o)
	}
	return n
}

// writesPerRound returns the ingest batches of round r, over all
// clients.
func (p *plan) writesPerRound(r int) int {
	n := 0
	for c := range p.ops {
		_, cycles := p.roundShape(r, c)
		n += cycles
	}
	return n
}

// batchIndex numbers the ingest batches of a run in a fixed order —
// round by round, client by client, cycle by cycle — so that each one
// owns a fixed slice of the seeded post stream.
func (p *plan) batchIndex(r, c, k int) int {
	n := 0
	for round := 0; round < r; round++ {
		n += p.writesPerRound(round)
	}
	for client := 0; client < c; client++ {
		_, cycles := p.roundShape(r, client)
		n += cycles
	}
	return n + k
}

// zipfS is the query-popularity skew of the mixed workload.
const zipfS = 1.1

// buildPlan derives the per-client op sequences from the seed. scale is
// -seconds/refSeconds (or the smoke factor).
func buildPlan(w *workload, seed int64, clients, poolSize int, scale float64) *plan {
	p := &plan{clients: clients, ops: make([][]int, clients),
		cycles: make([]int, clients), warmOps: make([]int, clients), warmCycles: make([]int, clients)}
	scaled := func(n int) int { return max(clients, int(float64(n)*scale+0.5)) }
	if w.quiesced() {
		// The round walks the shuffled pool, dealt to the clients op by
		// op. At the reference length it is whole passes, so the seed
		// moves the order of the questions and never their mix; and two
		// clients are never at the same question at the same moment
		// (serve would coalesce them into one search).
		order := rand.New(rand.NewSource(seed)).Perm(poolSize)
		total := scaled(w.passesPerRound * poolSize)
		for i := 0; i < total; i++ {
			p.ops[i%clients] = append(p.ops[i%clients], order[i%poolSize])
		}
		for c, ops := range p.ops {
			p.warmOps[c] = min(len(ops), 2*poolSize)
		}
		return p
	}
	// Popularity rank is pool order — rank 0 takes a fifth of the
	// traffic, and which query that is must not depend on the seed —
	// while the draws themselves do.
	total := scaled(w.cyclesPerRound)
	for c := range p.ops {
		lo, hi := c*total/clients, (c+1)*total/clients
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
		z := rand.NewZipf(r, zipfS, 1, uint64(poolSize-1))
		ops := make([]int, (hi-lo)*w.searchesPerCycle)
		for j := range ops {
			ops[j] = int(z.Uint64())
		}
		p.ops[c] = ops
		p.cycles[c] = hi - lo
		p.warmCycles[c] = min(p.cycles[c], (2*poolSize+w.searchesPerCycle-1)/w.searchesPerCycle)
		p.warmOps[c] = p.warmCycles[c] * w.searchesPerCycle
	}
	return p
}
