package main

import (
	"reflect"
	"testing"
)

const testPool = 140

func TestPlanIsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		a := buildPlan(w, 7, 2, testPool, 1)
		b := buildPlan(w, 7, 2, testPool, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans of seed 7 differ", w.name)
		}
		c := buildPlan(w, 8, 2, testPool, 1)
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: seeds 7 and 8 produced the same op sequence", w.name)
		}
	}
}

// TestReadOnlyPlanAsksEveryQueryEquallyOften is the property that
// makes the count metrics comparable across seeds: a round is whole
// passes over the pool, whatever the shuffle and however many clients
// share it.
func TestReadOnlyPlanAsksEveryQueryEquallyOften(t *testing.T) {
	for _, name := range []string{"hot_cache", "cold_heap", "cold_disk"} {
		w := findWorkload(name)
		for _, clients := range []int{1, 2, 3, 8} {
			p := buildPlan(w, 11, clients, testPool, 1)
			if got, want := p.searchesPerRound(), w.passesPerRound*testPool; got != want {
				t.Fatalf("%s/%d clients: %d searches per round, want %d", name, clients, got, want)
			}
			asked := make([]int, testPool)
			for c, ops := range p.ops {
				for _, q := range ops {
					asked[q]++
				}
				if _, cycles := p.roundShape(1, c); cycles != 0 {
					t.Fatalf("%s: read-only plan has write cycles", name)
				}
			}
			for q, n := range asked {
				if n != w.passesPerRound {
					t.Fatalf("%s/%d clients: query %d asked %d times, want %d", name, clients, q, n, w.passesPerRound)
				}
			}
			// Clients in lockstep are never at the same question.
			for j := range p.ops[clients-1] {
				seen := make(map[int]bool)
				for c := 0; c < clients; c++ {
					if seen[p.ops[c][j]] {
						t.Fatalf("%s/%d clients: step %d asks query %d twice at once", name, clients, j, p.ops[c][j])
					}
					seen[p.ops[c][j]] = true
				}
			}
		}
	}
}

func TestWarmUpShape(t *testing.T) {
	// Two pool passes per client when the round is longer than that…
	p := buildPlan(findWorkload("cold_heap"), 3, 2, testPool, 1)
	if n, _ := p.roundShape(0, 1); n != 2*testPool {
		t.Errorf("warm-up = %d ops, want two pool passes (%d)", n, 2*testPool)
	}
	// …and their union asks every query.
	asked := make(map[int]bool)
	for c := range p.ops {
		n, _ := p.roundShape(0, c)
		for _, q := range p.ops[c][:n] {
			asked[q] = true
		}
	}
	if len(asked) != testPool {
		t.Errorf("warm-up asks %d of %d queries", len(asked), testPool)
	}
	// A round shorter than the warm-up replays the whole round.
	short := buildPlan(findWorkload("cold_disk"), 3, 2, testPool, 1)
	if n, _ := short.roundShape(0, 0); n != len(short.ops[0]) {
		t.Errorf("short round: warm-up %d ops, want the whole sequence (%d)", n, len(short.ops[0]))
	}
}

func TestMixedPlan(t *testing.T) {
	w := findWorkload("mixed_ingest")
	for _, clients := range []int{2, 7} {
		p := buildPlan(w, 5, clients, testPool, 1)
		if got := p.writesPerRound(1); got != w.cyclesPerRound {
			t.Fatalf("%d clients: %d write cycles per round, want %d", clients, got, w.cyclesPerRound)
		}
		if got, want := p.searchesPerRound(), w.cyclesPerRound*w.searchesPerCycle; got != want {
			t.Errorf("%d clients: %d searches per round, want the pinned ratio's %d", clients, got, want)
		}
		for c, ops := range p.ops {
			if len(ops) != p.cycles[c]*w.searchesPerCycle {
				t.Errorf("client %d: %d searches for %d cycles", c, len(ops), p.cycles[c])
			}
			for _, q := range ops {
				if q < 0 || q >= testPool {
					t.Fatalf("client %d: query %d out of range", c, q)
				}
			}
			if ops, cycles := p.roundShape(0, c); cycles == 0 || ops != cycles*w.searchesPerCycle || cycles > p.cycles[c] {
				t.Errorf("client %d: warm-up shape %d ops / %d cycles", c, ops, cycles)
			}
		}
		if reflect.DeepEqual(p.ops[0], p.ops[1]) {
			t.Error("two clients draw the same Zipf sequence")
		}
		// Every batch of the run owns its own slice of the stream:
		// numbering is dense and in (round, client, cycle) order.
		next := 0
		for r := 0; r <= measuredRounds; r++ {
			for c := 0; c < clients; c++ {
				_, cycles := p.roundShape(r, c)
				for k := 0; k < cycles; k++ {
					if got := p.batchIndex(r, c, k); got != next {
						t.Fatalf("batchIndex(%d,%d,%d) = %d, want %d", r, c, k, got, next)
					}
					next++
				}
			}
		}
		if got := p.batchIndex(measuredRounds+1, 0, 0); got != next {
			t.Errorf("batches of the whole run = %d, want %d", got, next)
		}
	}
}

// TestZipfRanksIgnoreTheSeed: rank 0 takes about a fifth of the mixed
// traffic, so which query holds which rank must not move with the
// seed — only the draws do.
func TestZipfRanksIgnoreTheSeed(t *testing.T) {
	w := findWorkload("mixed_ingest")
	for _, seed := range []int64{1, 2, 3} {
		p := buildPlan(w, seed, 2, testPool, 1)
		count := make([]int, testPool)
		total := 0
		for _, ops := range p.ops {
			for _, q := range ops {
				count[q]++
				total++
			}
		}
		for q := 1; q < testPool; q++ {
			if count[q] > count[0] {
				t.Fatalf("seed %d: query %d drawn more often (%d) than rank 0 (%d)", seed, q, count[q], count[0])
			}
		}
		if count[0]*10 < total || count[0]*3 > total {
			t.Errorf("seed %d: rank 0 drawn %d of %d times, want roughly a fifth", seed, count[0], total)
		}
	}
}

func TestPlanScalesWithSeconds(t *testing.T) {
	w := findWorkload("hot_cache")
	full := buildPlan(w, 1, 2, testPool, 1)
	half := buildPlan(w, 1, 2, testPool, 0.5)
	if 2*half.searchesPerRound() != full.searchesPerRound() {
		t.Errorf("half the seconds gave %d searches per round, full %d", half.searchesPerRound(), full.searchesPerRound())
	}
	// However short the run, every client has something to do.
	tiny := buildPlan(w, 1, 2, testPool, 1e-9)
	if tiny.searchesPerRound() != 2 {
		t.Errorf("a vanishing run asked %d searches per round, want one per client", tiny.searchesPerRound())
	}
	if got := buildPlan(findWorkload("mixed_ingest"), 1, 2, testPool, 1e-9).writesPerRound(1); got != 2 {
		t.Errorf("a vanishing mixed run has %d cycles per round, want one per client", got)
	}
}
