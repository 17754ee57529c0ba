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
// interface, LRU result cache keyed on the expanded term set and
// invalidated by the vector epoch, in-flight coalescing, partial-result
// surfacing), the HTTP front door in internal/gateway (tokens, rate
// limits and quotas, per-request latency budgets; searches only — each
// binary's state is on internal/obs's admin plane), and one package per
// substrate (query-log synthesis, similarity graph,
// relational engine, community detection, domain store, microblog
// corpus, baseline detector, crowdsourcing simulation, experiment
// harness), and internal/topology, which wires a shard set —
// in-process indexes or shardd addresses, replicated or not — from a
// description of its layout. Executables: cmd/esharp runs the paper
// pipeline (its experiments subcommand regenerates the evaluation
// section), cmd/shardd serves one shard over TCP, cmd/gateway is the
// HTTP front door and the coordinator of a shardd deployment, and
// cmd/docscheck is the documentation gate behind `make docs-check`.
// The two runnable examples are examples/quickstart (the pipeline in
// forty lines) and examples/gateway (the front door driven over real
// HTTP). TestTopologyMatrix in topology_test.go is the equivalence
// spine over every deployment layout: each row wires its topology
// through internal/topology, runs concurrent searches beside live
// writers, quiesces, and must rank every eval query bit-identically to
// a cold rebuild; `make examples-smoke` runs both examples and the
// matrix.
//
// ARCHITECTURE.md is the layer-by-layer tour of the whole system —
// data flow, the vector-epoch invalidation story, and the
// bit-identical equivalence invariant each layer is held to.
// BENCHMARKS.md maps every Benchmark* name to the paper table or
// serving claim it backs and records the measurement methodology; the
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation section, internal/ingest adds BenchmarkIngest* and
// BenchmarkLiveSearch* for the streaming path, internal/shard adds
// BenchmarkLiveSearchSharded* for the sharded path, internal/transport
// adds BenchmarkRemoteSearchSharded* for the cross-process path, and
// bench/ (its own module, declared by BENCHMARK.json) measures the
// whole deployment end to end as real processes. ROADMAP.md
// tracks the north star and open items, and CHANGES.md records per-PR
// measurements.
package repro
