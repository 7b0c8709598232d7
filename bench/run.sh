#!/usr/bin/env bash
# run.sh builds the benchmark harness from this checkout's source and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload replay-pcap --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare .bench_build/runs/a .bench_build/runs/b
#
# The Go build cache, the harness binary and traced-run output all live under
# .bench_build/ in the root, so a run reads and writes nothing outside the
# checkout. The build is incremental: after the first run it only relinks.
set -eu

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench: run from the repository root (go.mod and bench/go.mod must both exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
