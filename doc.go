// Package repro is a from-scratch Go reproduction of "e#: Sharper
// Expertise Detection from Microblogs" (Sellam, Hentschel, Kandylas,
// Alonso — EDBT 2016).
//
// The library lives under internal/: the e# pipeline in internal/core
// (the frozen Detector — the paper pipeline's engine and the cold
// reference of every equivalence test — and the one served read path,
// the scatter-gather ShardedLiveDetector, of which a single streaming
// index and a frozen corpus are the one-shard cases), the live
// ingestion subsystem in internal/ingest (segmented streaming index:
// sealed corpus-backed segments, background compaction, epoch-tagged
// atomic snapshots), the one author-partitioned shard set in
// internal/shard (a Cluster of backends behind a stable author hash
// and the one shard.Backend query-surface interface, per-shard epochs
// composed into a vector epoch), the cross-process wire in
// internal/transport (length-prefixed TCP protocol: ShardServer serves
// one shard, RemoteShard implements shard.Backend over it, so clusters
// mix in-process and remote shards freely), the concurrent serving
// layer in internal/serve (query front-end over one Backend
// interface, vector-epoch-invalidated LRU result cache with in-flight
// coalescing, partial-result surfacing, read-only and mixed read/write
// load generators), and one package per substrate (query-log synthesis,
// similarity graph, relational engine, community detection, domain
// store, microblog corpus, baseline detector, crowdsourcing
// simulation, experiment harness). Executables are cmd/esharp,
// cmd/experiments and cmd/shardd (serves one shard over TCP); runnable
// examples live in examples/ (examples/streaming drives live ingestion
// under concurrent search — single-node, sharded via -shards N, or
// against shardd processes via -remote host:port,...).
//
// ARCHITECTURE.md is the layer-by-layer tour of the whole system —
// data flow, the vector-epoch invalidation story, and the
// bit-identical equivalence invariant each layer is held to.
// BENCHMARKS.md maps every Benchmark* name to the paper table or
// serving claim it backs and records the measurement methodology; the
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation section and measure serving throughput
// (BenchmarkServeQPS*), internal/ingest adds BenchmarkIngest* and
// BenchmarkLiveSearch* for the streaming path, internal/shard adds
// BenchmarkLiveSearchSharded* for the sharded path, internal/transport
// adds BenchmarkRemoteSearchSharded* for the cross-process path, and
// bench/ (its own module, declared by BENCHMARK.json) measures the
// whole deployment end to end as real processes. ROADMAP.md
// tracks the north star and open items, and CHANGES.md records per-PR
// measurements.
package repro
