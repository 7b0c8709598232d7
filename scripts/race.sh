#!/bin/sh
# race.sh — the race-detector pass over the packages that exercise the whole
# stack at once. It is the one list of race-tested packages: scripts/check.sh
# runs it as its race leg and `make race` runs it directly.
#
# internal/replay under -race covers the golden MITM replay at shard widths
# 1/2/8 — the byte-identical-at-any-width determinism contract — with the
# sharded ingest pipeline's injector and helpers actually racing, and the
# pipeline parity tests: widths 2/3/8 at GOMAXPROCS 1 and 2 against the
# inline path, malformed lines on chunk and round edges, a read error
# mid-round, and back-to-back Runs on recycled round storage. internal/sim,
# internal/labnet, and internal/scenario put the sharded campus engine's
# worker pool under the detector the same way: figure9, figure10 (the
# faulted per-deployment sweep), the campus MITM scenario, and the
# faulted+stacked campus scenario all assert byte-identical output at
# shard widths 1/2/8, with trunk partitions and router flushes armed
# across shard boundaries.
#
#   ./scripts/race.sh
set -eu

cd "$(dirname "$0")/.."

pkgs="./internal/eval ./internal/integration ./internal/faults ./internal/schemes/registry ./internal/telemetry/causal ./internal/ops ./internal/trace ./internal/replay ./internal/sim ./internal/labnet ./internal/scenario"

echo "==> go test -race $pkgs"
# shellcheck disable=SC2086 # word-splitting the package list is intended
go test -race $pkgs
