package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The metric names of BENCHMARK.json. A run that fails to produce one of
// them is an error, and a unit test holds the lists to the file.
var (
	endToEndNames = []string{"setup_s", "allocs_per_query", "alloc_kb_per_query", "rss_peak_mb"}
	// processLayerNames come from the real-process run. The first three
	// are the whole system's timing figures: reported on every run, but
	// not gated, because on the shared sandbox they do not repeat within
	// any bound the contract allows (see README.md, Noise).
	processLayerNames = []string{
		"qps", "search_p50_ms", "cpu_ms_per_query",
		"loadgen.cpu_ms_per_query",
		"gateway.cpu_ms_per_query", "gateway.allocs_per_query", "gateway.gc_cycles",
		"shardd.cpu_ms_per_query", "shardd.allocs_per_query", "shardd.gc_cycles",
		"gateway.search_p99_ms",
		"serve.hit_ratio", "serve.invalidations", "serve.coalesced",
		"transport.rpcs_per_query", "transport.bytes_per_query", "transport.ingest_rtt_p50_ms",
		"ingest.seals", "ingest.compactions", "ingest.spills", "ingest.segments_end",
		"diskseg.block_hit_ratio", "diskseg.block_misses_per_query", "diskseg.segments_end",
	}
)

// missing lists the names m lacks.
func missing(m map[string]value, names ...[]string) []string {
	var out []string
	for _, list := range names {
		for _, name := range list {
			if _, ok := m[name]; !ok {
				out = append(out, name)
			}
		}
	}
	return out
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string  // human-readable qualifier, not part of the JSON
}

// result is the outcome of one benchmark run.
type result struct {
	attempted, failed int
	endToEnd          map[string]value
	layers            map[string]value
}

// measurement is everything the measured rounds of one run produced,
// before it is folded into metrics. Child 0 is the gateway, the rest
// are the shardds.
type measurement struct {
	setups []float64 // seconds, one per set-up
	// Per measured round.
	qps, p50, loadgenCPU []float64   // 1/s, ms, ms per answered search
	childCPU             [][]float64 // [child][round] ms per answered search
	// Over all measured rounds.
	latencies, ingestRTT []float64 // ms
	attempted, answered  int
	failed               int
	firstErr             error
	before, after        []procSample // scraped around the measured rounds
	rssKiB               uint64       // Σ VmHWM at the end of the run
}

// fmtRounds renders per-round values compactly.
func fmtRounds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}

// perRoundSum adds the per-round series of children [from, to).
func (m *measurement) perRoundSum(from, to int) []float64 {
	sum := make([]float64, len(m.qps))
	for _, series := range m.childCPU[from:to] {
		for r, v := range series {
			sum[r] += v
		}
	}
	return sum
}

// result folds the measurement into the named metrics.
func (m *measurement) result() *result {
	n := len(m.childCPU)
	nq := float64(m.answered)
	// delta is a counter's growth over the measured rounds in child i.
	delta := func(i int, name string) float64 {
		return float64(m.after[i].metrics[name] - m.before[i].metrics[name])
	}
	shards := func(f func(i int) float64) float64 {
		t := 0.0
		for i := 1; i < n; i++ {
			t += f(i)
		}
		return t
	}
	shardDelta := func(name string) float64 {
		return shards(func(i int) float64 { return delta(i, name) })
	}
	shardGauge := func(name string) float64 {
		return shards(func(i int) float64 { return float64(m.after[i].metrics[name]) })
	}
	mallocs := func(i int) float64 { return float64(m.after[i].mem.Mallocs - m.before[i].mem.Mallocs) }
	allocB := func(i int) float64 { return float64(m.after[i].mem.TotalAlloc - m.before[i].mem.TotalAlloc) }
	gcs := func(i int) float64 { return float64(m.after[i].mem.NumGC - m.before[i].mem.NumGC) }
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	var rpcs float64
	for name := range m.after[0].metrics {
		if strings.HasPrefix(name, "rpc_client_") && strings.HasSuffix(name, "_requests") {
			rpcs += delta(0, name)
		}
	}
	sort.Float64s(m.latencies)
	tail := tailRank(len(m.latencies))
	blockHits, blockMisses := shardDelta("disk_block_cache_hits"), shardDelta("disk_block_cache_misses")
	ingestP50 := 0.0 // a read-only workload has no write round trips
	if len(m.ingestRTT) > 0 {
		ingestP50 = median(m.ingestRTT)
	}

	res := &result{attempted: m.attempted, failed: m.failed}
	res.endToEnd = map[string]value{
		"setup_s":            {Value: median(m.setups), Unit: "s", note: fmt.Sprintf("median of %d set-ups", len(m.setups))},
		"allocs_per_query":   {Value: (mallocs(0) + shards(mallocs)) / nq, Unit: "1"},
		"alloc_kb_per_query": {Value: (allocB(0) + shards(allocB)) / 1024 / nq, Unit: "KiB"},
		"rss_peak_mb":        {Value: float64(m.rssKiB) / 1024, Unit: "MiB"},
	}
	res.layers = map[string]value{
		"qps":                      {Value: median(m.qps), Unit: "1/s", note: "median round"},
		"search_p50_ms":            {Value: median(m.p50), Unit: "ms", note: fmt.Sprintf("median round, %d samples per round", len(m.latencies)/len(m.qps))},
		"cpu_ms_per_query":         {Value: median(m.perRoundSum(0, n)), Unit: "ms", note: "median round"},
		"loadgen.cpu_ms_per_query": {Value: median(m.loadgenCPU), Unit: "ms"},
		"gateway.cpu_ms_per_query": {Value: median(m.childCPU[0]), Unit: "ms"},
		"gateway.allocs_per_query": {Value: mallocs(0) / nq, Unit: "1"},
		"gateway.gc_cycles":        {Value: gcs(0), Unit: "1"},
		"shardd.cpu_ms_per_query":  {Value: median(m.perRoundSum(1, n)), Unit: "ms"},
		"shardd.allocs_per_query":  {Value: shards(mallocs) / nq, Unit: "1"},
		"shardd.gc_cycles":         {Value: shards(gcs), Unit: "1"},
		"gateway.search_p99_ms": {Value: m.latencies[tail-1], Unit: "ms",
			note: fmt.Sprintf("p%.4g of %d samples", 100*float64(tail)/float64(len(m.latencies)), len(m.latencies))},
		"serve.hit_ratio":                {Value: ratio(delta(0, "serve_cache_hits"), delta(0, "serve_cache_misses")), Unit: "1"},
		"serve.invalidations":            {Value: delta(0, "serve_invalidations"), Unit: "1"},
		"serve.coalesced":                {Value: delta(0, "serve_coalesced"), Unit: "1"},
		"transport.rpcs_per_query":       {Value: rpcs / nq, Unit: "1"},
		"transport.bytes_per_query":      {Value: (delta(0, "rpc_client_bytes_read") + delta(0, "rpc_client_bytes_written")) / nq, Unit: "B"},
		"transport.ingest_rtt_p50_ms":    {Value: ingestP50, Unit: "ms", note: fmt.Sprintf("%d batches", len(m.ingestRTT))},
		"ingest.seals":                   {Value: shardDelta("ingest_seals"), Unit: "1"},
		"ingest.compactions":             {Value: shardDelta("ingest_compactions"), Unit: "1"},
		"ingest.spills":                  {Value: shardDelta("ingest_spills"), Unit: "1"},
		"ingest.segments_end":            {Value: shardGauge("ingest_segments"), Unit: "1"},
		"diskseg.block_hit_ratio":        {Value: ratio(blockHits, blockMisses), Unit: "1"},
		"diskseg.block_misses_per_query": {Value: blockMisses / nq, Unit: "1"},
		"diskseg.segments_end":           {Value: shardGauge("disk_segments"), Unit: "1"},
	}
	return res
}

// addRound folds one measured round into the measurement. c0 and c1
// are the CPU samples taken around it.
func (m *measurement) addRound(res roundResult, c0, c1 cpuSample) {
	m.attempted += res.attempted
	m.answered += res.answered
	m.failed += res.failed
	if m.firstErr == nil {
		m.firstErr = res.firstErr
	}
	if res.answered == 0 {
		return
	}
	n := float64(res.answered)
	lat := make([]float64, len(res.latencies))
	for i, ns := range res.latencies {
		lat[i] = float64(ns) / 1e6
	}
	m.latencies = append(m.latencies, lat...)
	for _, ns := range res.ingestRTT {
		m.ingestRTT = append(m.ingestRTT, float64(ns)/1e6)
	}
	m.qps = append(m.qps, n/res.wall.Seconds())
	m.p50 = append(m.p50, median(lat))
	if m.childCPU == nil {
		m.childCPU = make([][]float64, len(c1.children))
	}
	for i := range c1.children {
		m.childCPU[i] = append(m.childCPU[i], (c1.children[i]-c0.children[i])/n)
	}
	m.loadgenCPU = append(m.loadgenCPU, (c1.self-c0.self)/n)
}
