GO ?= go

.PHONY: all artifact golden build test race flake vet bench bench-once bench-check bench-smoke bench-trace-smoke cover cover-check check docs-check bench-ingest bench-shard bench-remote bench-replica bench-gateway bench-disk loc pairs fuzz-smoke run-gateway smoke-gateway examples-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The serving layer, the online detectors, the streaming index, the
# disk tier, the shard set, the wire transport, the replica sets, the
# metrics registry, the chaos harness, the topology builder and the
# gateway binary are the concurrent surfaces; hammer them with the race
# detector enabled — the root package's topology matrix (concurrent
# mixed load over every deployment layout) among them.
race:
	$(GO) test -race . ./internal/serve ./internal/core ./internal/expertise ./internal/querylog ./internal/ingest ./internal/diskseg ./internal/shard ./internal/transport ./internal/replica ./internal/obs ./internal/gateway ./internal/fault ./internal/topology ./cmd/gateway

# Flake gate: the packages whose tests race background goroutines
# (compactor, push loops, servers flushing after they answer) or hammer
# state shared across requests (serve's once-encoded cache entries, the
# gateway's pooled scratch, the ranker's pooled columns, the disk
# tier's concurrent readers of one mapped segment), the admin plane's
# /watch streams (internal/obs, cmd/gateway), plus the root
# package, whose topology matrix is the concurrent mixed-load hammer,
# run repeatedly and uncached, then again under the race detector. A
# test that passes once and fails one run in five fails here.
FLAKY = . ./internal/ingest ./internal/transport ./internal/shard ./internal/replica ./cmd/shardd ./internal/serve ./internal/gateway ./internal/expertise ./internal/diskseg ./internal/obs ./cmd/gateway
flake:
	$(GO) test -count=10 $(FLAKY)
	$(GO) test -race -count=3 $(FLAKY)

vet:
	$(GO) vet ./...

# bench/ is its own module (repro/bench, replace repro => ../), so the
# root `go vet ./...` and `go test ./...` never compile it: a change to
# a name it uses breaks BENCHMARK.json's command without failing
# anything above. Vet it and run its tests from inside.
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# The real-process answer check, in brief (≈6–20 s): builds gateway and
# shardd, boots them, runs all four BENCHMARK.json workloads at 1/50 of
# the op counts and requires every answer byte-identical to a cold
# rebuild, zero failed operations and no child death. It is the one
# gate that drives the disk tier through real processes, so a change to
# the segment format or the wire fails here, not in production.
bench-smoke:
	$(GO) -C bench run . -smoke

# The traced pass in brief (≈10 s): -smoke ignores --trace, so this runs
# cold_heap for 0.3 s with --trace 1, which wraps the in-process stack
# in bench/'s span recorders (around ServeHTTP, serve's calls into the
# detector's SearchContext, and every shard) and fails unless the spans
# nest. A change that stops serve reaching the detector through
# SearchContext, the call bench/trace.go spans, fails here.
bench-trace-smoke:
	$(GO) -C bench run . --workload cold_heap --seed 1 --seconds 0.3 --trace 1

# Documentation gate (see BENCHMARKS.md and ARCHITECTURE.md): formatting
# is canonical, vet is clean, and every exported symbol of every package
# under internal/ carries a doc comment.
# docs-check also fails when a doc below names a `Test…`, `Benchmark…` or
# `Fuzz…` that no _test.go declares. BENCHMARKS.md is left out: it names
# retired benchmarks on purpose. It fails, too, when a doc outgrows its
# line budget (DOC_BUDGETS: file:max pairs).
NAMED_TEST_DOCS = ARCHITECTURE.md .claude/skills/verify/SKILL.md
DOC_BUDGETS = ARCHITECTURE.md:925 .claude/skills/verify/SKILL.md:250
docs-check: vet
	@for b in $(DOC_BUDGETS); do f=$${b%:*}; max=$${b##*:}; n=$$(wc -l < $$f); \
		if [ $$n -gt $$max ]; then echo "$$f is $$n lines, over its $$max-line budget"; exit 1; fi; done
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$fmtout"; exit 1; fi
	$(GO) run ./cmd/docscheck ./internal/*/
	@declared="$$(grep -rhoE --include='*_test.go' '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]+' . | sed 's/^func //' | sort -u)"; \
	stale=""; \
	for n in $$(grep -ohE '`(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' $(NAMED_TEST_DOCS) | tr -d '`' | sort -u); do \
		printf '%s\n' "$$declared" | grep -qx "$$n" || stale="$$stale $$n"; \
	done; \
	if [ -n "$$stale" ]; then echo "$(NAMED_TEST_DOCS) name tests no _test.go declares:$$stale"; exit 1; fi

# Hot-path benchmarks of the paper pipeline; `make bench BENCH=.` runs
# everything in the root package. Streaming benchmarks live in
# internal/ingest, sharded scatter-gather benchmarks in internal/shard,
# loopback wire benchmarks in internal/transport; BENCHMARKS.md maps
# each name to the paper table or serving claim it backs. Serving
# throughput is measured end to end by bench/ (BENCHMARK.json).
BENCH ?= Table9|OnlineSearch
bench:
	$(GO) test -bench '$(BENCH)' -benchmem -run '^$$' .

# Every in-package benchmark, one iteration each (≈ 10 s on 2 vCPUs):
# not a measurement, a gate — the rows that assert (RemoteEpochSample
# fails if an epoch round trip fires, IngestPreload and the disk rows
# check the layout they built) cannot break unnoticed between re-records.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-ingest:
	$(GO) test -bench 'Ingest|LiveSearch' -benchmem -run '^$$' ./internal/ingest

bench-shard:
	$(GO) test -bench 'Sharded|EpochVector' -benchmem -run '^$$' ./internal/shard

bench-remote:
	$(GO) test -bench 'Remote|WireSearchCodec' -benchmem -run '^$$' ./internal/transport

bench-replica:
	$(GO) test -bench 'Replicated|Failover' -benchmem -run '^$$' ./internal/replica

bench-gateway:
	$(GO) test -bench 'Gateway' -benchmem -run '^$$' ./internal/gateway

# Disk-tier benchmarks: spilled-index search latency (every posting
# block decoded off the map, as in memory) against the in-memory
# LiveSearch rows, the compaction merge, and the diskseg micro-benches —
# among them the seal's encode and what opening a segment costs by its
# size (DiskSegOpen).
bench-disk:
	$(GO) test -bench 'Disk' -benchmem -run '^$$' ./internal/ingest ./internal/diskseg

# Regenerates cmd/gateway/tiny.artifact, the serving artifact the
# gateway embeds and boots from, from a fresh build of the offline stage
# at core.TinyPipelineConfig(): TestArtifactIsFresh with -update. Run it
# after a change to the offline stage, the corpus generator or the
# artifact's encoding; the same test without -update fails until then.
artifact:
	$(GO) test ./cmd/gateway -run '^TestArtifactIsFresh$$' -count=1 -update

# Regenerates cmd/esharp/testdata/experiments-*.txt, the ledger of every
# paper table and figure at the tiny and small scales (Table 9's
# runtimes masked): TestExperimentsLedger with -update. Run it after a
# change that is meant to move a number of the paper's evaluation; the
# same test without -update fails until then.
golden:
	$(GO) test ./cmd/esharp -run '^TestExperimentsLedger$$' -count=1 -update

# Non-test Go lines under internal/ and cmd/ — the tracked metric of
# ROADMAP aim 2. CHANGES.md quotes it for parent and change:
# `make loc BASE=<rev>` prints this tree's count, then <rev>'s, counted
# in a `git archive` of <rev> unpacked into a temporary directory.
LOC = find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
loc:
	@if [ -z "$(BASE)" ]; then $(LOC); else \
		tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		git archive "$(BASE)" internal cmd | tar -x -C "$$tmp" && \
		echo "tree $$($(LOC))" && echo "$(BASE) $$(cd "$$tmp" && $(LOC))"; fi

# Paired end-to-end runs of BASE against this tree, alternating per
# seed, with both sides measured by this tree's bench/: -compare's
# verdict, then per workload × metric the parent's median and IQR, the
# change's median, the median per-pair ratio and "lower in k of n"
# (scripts/pairs.sh, cmd/benchpairs). Not a CI step: ten pairs of four
# workloads take 10 to 25 minutes.
pairs:
	BASE="$(BASE)" SEEDS="$(SEEDS)" WORKLOADS="$(WORKLOADS)" TRACE="$(TRACE)" METRICS='$(METRICS)' ./scripts/pairs.sh

# A brief native-fuzz pass, FUZZTIME per target, over the wire codec
# (FuzzDecodeFrame): ReadFrame, the one frame reader the wire runs, and
# every op's payload decoder — including the
# OpSearchStats composite, OpSubscribe/OpEpochDelta acks, the OpTweets
# pages and the OpInfo answer — must never panic or
# over-allocate on adversarial input, and every successful decode must
# round-trip; over
# the server acting on what it decodes (FuzzDispatch): arbitrary request
# frame sequences against a real shard never panic it and get OpError or
# a decodable answer of their own op; and over the admission fast paths
# (FuzzNormalize): Normalize and TokenizeAppend must agree with
# lower-case + Fields + Join on any string; and over the segment
# loaders (FuzzOpen): a mutated segment image, resealed or not, is
# refused by Open and Load alike with a diskseg sentinel or every read
# of it succeeds with strictly ascending posting lists; and over the front door
# (FuzzHandler): a fuzzed search body and budget never
# panic the gateway and get a documented status, and each body, then a
# valid one, is answered through the pooled decoder exactly as
# json.Unmarshal implies; and the hand-assembled answer stays
# byte-identical to json.Encoder (FuzzAnswerBytes); and over the admin
# plane's responder (FuzzAdminRequest): an arbitrary request head never
# panics it, never gets more than 8 KiB read, and is answered with a
# well-formed HTTP/1.1 response or, when no whole head arrived, a
# close. Raise
# FUZZTIME for longer local hunts. FuzzOpen caps how long the engine
# minimizes each new coverage input (500 execs): its inputs are kilobyte
# images, and the default 60 s minimization spends a whole smoke budget
# on one of them.
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/textutil -run '^$$' -fuzz '^FuzzNormalize$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diskseg -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 500x
	$(GO) test ./internal/gateway -run '^$$' -fuzz '^FuzzHandler$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gateway -run '^$$' -fuzz '^FuzzAnswerBytes$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzAdminRequest$$' -fuzztime $(FUZZTIME)

# Coverage over the library packages, with a one-line total summary.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# CI-enforced coverage floor: the total must not sink below 87%.
COVER_FLOOR ?= 87.0
cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{gsub("%","",$$3); print $$3}'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, floor; exit 1 } \
		else { printf "coverage %.1f%% (floor %.1f%%)\n", t, floor } }'

# Run the HTTP front door locally: 2 in-process shards, a dev admin
# token, the admin plane on :8081. Ctrl-C drains and exits 0.
run-gateway:
	$(GO) run ./cmd/gateway -addr 127.0.0.1:8080 -admin 127.0.0.1:8081

# Boot a real gateway process on a free port, drive one authenticated
# search, one 401 and a clean SIGTERM drain through it, fail on any
# wrong status. Wired into CI as the end-to-end front-door smoke.
smoke-gateway: build
	./scripts/smoke_gateway.sh

# The two example programs, run to exit 0 (seconds each), and the
# topology matrix uncached: every deployment layout under mixed load,
# quiesced and compared with a cold rebuild over every eval query, at
# GOMAXPROCS 1 and 4 — no read-path branch depends on scheduler width,
# so neither may an answer.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gateway
	$(GO) test -count=1 -cpu 1,4 -run '^TestTopologyMatrix$$' .

# Every gate CI runs, in CI's order; cover-check is the test stage
# (`go test ./...` with a profile).
check: build vet test race docs-check bench-once bench-check bench-smoke bench-trace-smoke flake cover-check smoke-gateway examples-smoke fuzz-smoke
