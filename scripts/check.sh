#!/bin/sh
# check.sh — the repository's CI gate, runnable locally.
#
# Runs, in order: formatting check, vet, build, the full test suite, vet
# and tests of the nested bench/ module (root ./... skips it, so an API
# change that breaks the benchmark driver would otherwise pass), a
# race-detector pass over the packages that exercise the whole stack at
# once (scripts/race.sh, also `make race`), the hot-path allocation gates
# (encode/decode, cache, CAM, unicast transit, broadcast fan-out,
# background datagrams, router trunk forward, recycled caches and router
# tables, a small campus trial on recycled storage must stay at their
# pinned allocs/op; sharded windows at width 2 must not add allocations
# per RunUntil; the resolution storm's allocs/op must not vary across
# runs), one fuzz
# loop over the native fuzz
# targets (4 to 10 seconds each, 50 in all), an experiment-registry
# completeness leg (a small-trial pass of every
# experiment, diffed against the arpbench -list catalogue), and an
# evaluation golden leg (a -trials 10 pass diffed against the committed
# evaluation_output.txt with the host-timed Table 4 and Figure 3 masked).
# Any failure stops the run with a non-zero exit.
#
#   ./scripts/check.sh          # the full gate
#   make check                  # same, via the Makefile
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> bench module: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)

./scripts/race.sh

echo "==> bench smoke (sequential vs parallel Table 3, 1 iteration)"
go test -run '^$' -bench 'BenchmarkTable3(Sequential|Parallel)$' -benchtime=1x .

echo "==> tracing-disabled hot path stays allocation-free (scheduler steady state, deep queue with FIFO lanes)"
steady=$(go test -run '^$' -bench 'BenchmarkScheduler(SteadyState|DeepQueue)$' -benchmem -benchtime=100000x .)
echo "$steady"
for bench in SteadyState DeepQueue; do
	allocs=$(echo "$steady" | awk -v name="BenchmarkScheduler$bench" '$1 ~ "^" name "(-[0-9]+)?$" {
		for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i - 1)
	}')
	if [ "$allocs" != "0" ]; then
		echo "scheduler $bench allocates with tracing disabled: ${allocs:-?} allocs/op" >&2
		exit 1
	fi
done

echo "==> pooled trial storage survives GC (BenchmarkResolutionStorm allocs/op identical across -count 10)"
# The trial pool is a free list a GC cannot empty, so every storm after the
# first runs on the same recycled scheduler, arenas and caches and
# allocates exactly the same. 20 ops per count absorb the odd runtime
# allocation that lands inside the timed loop.
storm=$(go test -run '^$' -bench 'BenchmarkResolutionStorm$' -benchmem -benchtime=20x -count=10 .)
echo "$storm"
storm_allocs=$(echo "$storm" | awk '$1 ~ /^BenchmarkResolutionStorm(-[0-9]+)?$/ {
	for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i - 1)
}' | sort -u)
if [ "$(echo "$storm" | grep -c '^BenchmarkResolutionStorm')" != "10" ] || [ "$(echo "$storm_allocs" | grep -c .)" != "1" ]; then
	echo "BenchmarkResolutionStorm allocs/op differ across runs: $(echo $storm_allocs)" >&2
	exit 1
fi

echo "==> frame hot path allocation gates (encode/decode, index, cache, resolver, CAM, unicast transit, broadcast fan-out, router forward, DAI, bank datagrams, replay steady state, campus bytes/host, recycled caches, router tables and campus trials, sharded windows)"
# Capture first, then filter: piping straight into grep would take grep's
# exit status, and grep succeeds on the "--- FAIL" lines themselves.
if ! gates=$(go test -run 'AllocFree$' -count=1 -v \
	./internal/frame ./internal/arppkt ./internal/ipv4pkt ./internal/denseidx ./internal/stack \
	./internal/netsim ./internal/schemes/dai ./internal/replay ./internal/labnet ./internal/sim 2>&1); then
	echo "$gates" >&2
	echo "allocation gates failed" >&2
	exit 1
fi
echo "$gates" | grep -E '^(--- |ok|FAIL)'

# Native fuzz targets, as package:target:seconds. Each seeds from
# <package>/testdata/fuzz/<target>:
#   FuzzCacheOps  arbitrary op streams (updates, expiry, Delete, Flush,
#                 SetStatic over colliding keys) against a plain-map model;
#   FuzzScenario  arbitrary bytes through scenario.Load, and every accepted
#                 spec, shortened and size-capped, must Run without panicking;
#   FuzzIPv4      DecodeInto/AppendEncode against Decode/Encode, and
#                 decode-encode round trips, for IPv4 and UDP;
#   FuzzPCAPReader arbitrary bytes through the pcap reader (errors, never a
#                 panic or a record buffer past the 256 KiB cap), and
#                 WritePCAP captures must read back unchanged;
#   FuzzNDJSONLine ParseNDJSONLine, byte-scan fast path included, against
#                 encoding/json: same at and wire bytes, same rejections;
#   FuzzNDJSONSplit NDJSONReader's line splitter against bufio.Scanner
#                 through whole, one-byte and half reads: same lines, same
#                 errors.
# -fuzzminimizetime caps minimizing each new input at 1s: with the default
# (60s) FuzzCacheOps spent most of its leg minimizing rather than executing.
for spec in \
	internal/stack:FuzzCacheOps:10 \
	internal/scenario:FuzzScenario:10 \
	internal/ipv4pkt:FuzzIPv4:10 \
	internal/trace:FuzzPCAPReader:10 \
	internal/trace:FuzzNDJSONLine:6 \
	internal/trace:FuzzNDJSONSplit:4; do
	pkg=${spec%%:*}
	rest=${spec#*:}
	target=${rest%%:*}
	secs=${rest#*:}
	echo "==> fuzz $target ($pkg, ${secs}s)"
	go test -run '^$' -fuzz "^${target}\$" -fuzztime="${secs}s" -fuzzminimizetime=1s "./$pkg"
done

echo "==> experiment registry completeness (-list vs a -trials 1 pass of every experiment)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/arpbench" ./cmd/arpbench
"$tmpdir/arpbench" -list |
	awk '$1 ~ /^(table|figure)[0-9]/ { print $1 }' | sort >"$tmpdir/listed"
"$tmpdir/arpbench" -trials 1 >"$tmpdir/full.txt"
grep -E '^(Table|Figure) [0-9]+b?:' "$tmpdir/full.txt" |
	awk '{ id = tolower($1) $2; sub(/:$/, "", id); print id }' | sort >"$tmpdir/rendered"
if ! diff -u "$tmpdir/listed" "$tmpdir/rendered"; then
	echo "arpbench -list catalogue and rendered artifacts disagree" >&2
	exit 1
fi

echo "==> evaluation golden (-trials 10 vs evaluation_output.txt, host-timed Table 4 / Figure 3 masked)"
# Table 4 and Figure 3 embed host CPU timings and real ECDSA signature
# lengths; every other artifact, Table 10 included, must regenerate byte for
# byte. Masking keeps each artifact header and drops its body up to the next
# artifact header.
mask_host_timed() {
	awk '/^(Table|Figure) [0-9]+b?:/ { skip = /^(Table 4|Figure 3):/; print; next } !skip' "$1"
}
"$tmpdir/arpbench" -trials 10 >"$tmpdir/eval.txt"
mask_host_timed evaluation_output.txt >"$tmpdir/eval.want"
mask_host_timed "$tmpdir/eval.txt" >"$tmpdir/eval.got"
if ! diff -u "$tmpdir/eval.want" "$tmpdir/eval.got"; then
	echo "regenerated evaluation output drifted from evaluation_output.txt (make regen after a deliberate change)" >&2
	exit 1
fi

echo "==> all checks passed"
