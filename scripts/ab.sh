#!/usr/bin/env bash
# ab.sh — paired A/B benchmark of a base revision (A) against the working
# tree (B), through the repository benchmark. Run it from the repository
# root:
#
#   scripts/ab.sh <base-rev> [workload…]   # default: every BENCHMARK.json workload
#
# It checks <base-rev> out as a detached git worktree under
# .bench_build/ab-base, builds both trees' harnesses once, and then runs two
# sets of ten pairs per workload through each tree's bench/run.sh at the
# benchmark's own run length and --trace 0. The second set starts only
# after the first has finished every workload, so the sets sample the host
# at different times, as two benchmark checks would. Within a set, pair i
# uses seed i on both sides, and the side that runs first alternates (A B,
# B A, A B, …), so a host-wide slowdown episode lands on both sides of a
# pair instead of on one set. Each run's output is kept as
# .bench_build/ab/<stamp>/set<k>/{a,b}/<workload>.<seed>.out.
#
# For each set it then prints the harness's own unpaired verdicts (`bench
# compare`: medians, quartiles and bounds) and the paired table of
# scripts/abstat: A's quartiles, both medians, the change, the pairs B won,
# exact sign-test and Wilcoxon signed-rank p-values, and a verdict per
# metric — gain when B wins at least nine of ten pairs and the medians
# differ by more than A's interquartile range, worse>bound when B's median
# is worse than the metric's bound allows. Last comes abstat's summary over
# the sets, which gives a verdict only where both sets agree: a gain one set
# of pairs calls and the next does not is no gain. The worktree is removed
# on exit.
set -eu

if [ $# -lt 1 ]; then
	echo "usage: scripts/ab.sh <base-rev> [workload…]" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
root=$PWD
base_rev=$(git rev-parse --verify "$1^{commit}")
shift
if [ $# -gt 0 ]; then
	workloads="$*"
else
	workloads=$(awk '/"workloads"/ { f = 1 } /"end_to_end"/ { f = 0 }
		f && /"name"/ { sub(/.*"name": *"/, ""); sub(/".*/, ""); print }' BENCHMARK.json)
fi
pairs=10
sets=2

base="$root/.bench_build/ab-base"
out="$root/.bench_build/ab/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$root/.bench_build"
for k in $(seq 1 "$sets"); do
	mkdir -p "$out/set$k/a" "$out/set$k/b"
done
git worktree remove --force "$base" 2>/dev/null || true
git worktree add --detach "$base" "$base_rev" >/dev/null
trap 'git -C "$root" worktree remove --force "$base" 2>/dev/null || true' EXIT

# run <set> <side> <tree> <workload> <seed>
run() {
	echo "  set $1 $2 $4 seed $5" >&2
	(cd "$3" && bash bench/run.sh --workload "$4" --seed "$5" --trace 0) >"$out/set$1/$2/$4.$5.out"
}

# Build each harness once: `bench compare` over an empty run directory
# builds through run.sh, prints only a header, and exits.
mkdir -p "$out/empty"
for tree in "$base" "$root"; do
	(cd "$tree" && bash bench/run.sh compare "$out/empty" "$out/empty") >/dev/null
done
rmdir "$out/empty"

echo "==> A = $base_rev, B = working tree; $sets sets of $pairs pairs of: $workloads" >&2
for k in $(seq 1 "$sets"); do
	for w in $workloads; do
		for s in $(seq 1 "$pairs"); do
			if [ $((s % 2)) -eq 1 ]; then
				run "$k" a "$base" "$w" "$s"
				run "$k" b "$root" "$w" "$s"
			else
				run "$k" b "$root" "$w" "$s"
				run "$k" a "$base" "$w" "$s"
			fi
		done
	done
done

sets_args=
for k in $(seq 1 "$sets"); do
	echo "==> set $k unpaired (bench compare $out/set$k/a $out/set$k/b)"
	bash bench/run.sh compare "$out/set$k/a" "$out/set$k/b"
	echo
	sets_args="$sets_args $out/set$k/a $out/set$k/b"
done
echo "==> paired (scripts/abstat)"
# shellcheck disable=SC2086 # word-splitting the set directories is intended
GOCACHE="$root/.bench_build/gocache" GOFLAGS= GOPROXY=off go run ./scripts/abstat $sets_args
