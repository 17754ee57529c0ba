#!/bin/sh
# Paired end-to-end benchmark runs of a parent revision against this
# tree (ROADMAP aim 1: a claim counts only if it repeats, pair by pair).
#
#   BASE=<rev> SEEDS=11-20 WORKLOADS="hot_cache cold_heap" TRACE=0 \
#   METRICS='<regexp>' scripts/pairs.sh          # or: make pairs BASE=...
#
# BASE is extracted into a temporary directory (git archive) and this
# tree's bench/ is copied over its own, so one instrument measures both
# sides. For every seed and workload both sides run
# `go -C <root>/bench run . --workload w --seed s --trace TRACE`; odd
# seeds run the parent first, even seeds the change. The outputs land in
# .bench_build/pairs/<base>-<tree>/{parent,change}/<workload>-<seed>.txt
# ("+<hash>" marks uncommitted changes by a hash of their diff, so two
# dirty states never share a directory), -compare judges the two
# sets against BENCHMARK.json's bounds, and cmd/benchpairs prints per
# workload and metric the parent's median and IQR, the change's median,
# the median per-pair ratio and "lower in k of n". METRICS picks those
# rows (unset: benchpairs' default, the four gated end-to-end metrics);
# the per-layer rows such as 'shardd\.' are in every run's output, the
# traced ones only with TRACE=1. A ten-pair, four-workload run takes 10
# to 25 minutes.
set -eu
: "${BASE:?set BASE=<rev>, the parent to pair against}"
SEEDS=${SEEDS:-11-20}
WORKLOADS=${WORKLOADS:-hot_cache cold_heap cold_disk mixed_ingest}
TRACE=${TRACE:-0}
METRICS=${METRICS:-}

root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --short "$BASE")
tree=$(git -C "$root" rev-parse --short HEAD)
git -C "$root" diff --quiet HEAD || tree=$tree+$(git -C "$root" diff HEAD | git hash-object --stdin | cut -c1-7)
out=$root/.bench_build/pairs/$base-$tree
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$base" | tar -x -C "$tmp"
rm -rf "$tmp/bench"
cp -R "$root/bench" "$tmp/bench"
mkdir -p "$out/parent" "$out/change"

for s in $(seq "${SEEDS%-*}" "${SEEDS#*-}"); do
	order="parent change"
	[ $((s % 2)) -eq 1 ] || order="change parent"
	for w in $WORKLOADS; do
		for side in $order; do
			dir=$root
			[ "$side" = change ] || dir=$tmp
			echo "pairs: seed $s $w $side" >&2
			go -C "$dir/bench" run . --workload "$w" --seed "$s" --trace "$TRACE" >"$out/$side/$w-$s.txt" ||
				echo "pairs: seed $s $w $side exited non-zero" >&2
		done
	done
done

status=0
go -C "$root/bench" run . -compare "$out/parent" "$out/change" || status=1
go -C "$root" run ./cmd/benchpairs ${METRICS:+-metrics "$METRICS"} "$out/parent" "$out/change" || status=1
echo "pairs: outputs in $out" >&2
exit $status
