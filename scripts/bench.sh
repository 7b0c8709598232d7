#!/bin/sh
# bench.sh — record the perf trajectory.
#
# Runs the experiment-sized benchmarks once (-benchtime=1x: each iteration
# is a whole experiment, so one is representative and cheap enough for CI):
# the Table 3 sequential/parallel pair, the Figure9 campus-scaling points
# (10², 10⁴, 10⁶ hosts — each one full sharded campus trial) and the MITM16
# trials. The per-table and per-figure benchmarks are gone: the repository
# benchmark's eval-suite workload times every experiment (eval.<id>_ms).
# Also runs the scheduler hot-path micro-benchmarks at a
# fixed high iteration count (single iterations of a nanosecond-scale loop
# measure timer noise, not the loop — the PR6 trajectory point recorded
# Table1/SchedulerThroughput "regressions" that were exactly this artifact),
# plus the replay-engine ingest benchmarks (single-thread and sharded, both
# capture formats) at a fixed frame count.
# Writes (name, ns/op, allocs/op) to BENCH_PR10.json so later PRs can diff
# against this PR's numbers (BENCH_PR2/PR5/PR6/PR7/PR8/PR9.json hold
# earlier recorded trajectory points), then prints a delta table against
# the previous point.
#
#   ./scripts/bench.sh                  # writes BENCH_PR10.json
#   ./scripts/bench.sh out.json        # custom output path
set -eu

cd "$(dirname "$0")/.."

out=${1:-BENCH_PR10.json}
prev=BENCH_PR9.json

tojson='
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name) # strip the -GOMAXPROCS suffix
		ns = $3
		allocs = "null"
		for (i = 4; i <= NF; i++) {
			if ($i == "allocs/op") allocs = $(i - 1)
		}
		if (n++) printf ",\n"
		printf "  {\"name\": \"%s\", \"nsPerOp\": %s, \"allocsPerOp\": %s}", name, ns, allocs
	}
	BEGIN { print "[" }
	END {
		if (n == 0) exit 1 # no benchmarks ran: fail loudly
		print "\n]"
	}'

{
	go test -run '^$' -bench 'Table|Figure|MITM16' -benchtime=1x -benchmem .
	go test -run '^$' -bench 'Scheduler' -benchtime=100000x -benchmem .
	go test -run '^$' -bench 'BenchmarkReplay' -benchtime=2x -benchmem ./internal/replay
} | awk "$tojson" >"$out"

echo "wrote $out"

# Delta table against the previous trajectory point. Best-effort: skipped
# when the previous point is absent (fresh checkout).
if [ -f "$prev" ]; then
	echo
	echo "delta vs $prev (ratio = previous/current; >1 is faster/leaner now)"
	awk '
	function flat(file, dest,    line, name, ns, al) {
		while ((getline line <file) > 0) {
			if (match(line, /"name": "[^"]*"/)) {
				name = substr(line, RSTART + 9, RLENGTH - 10)
				ns = ""; al = ""
				if (match(line, /"nsPerOp": [0-9.e+]*/))
					ns = substr(line, RSTART + 11, RLENGTH - 11)
				if (match(line, /"allocsPerOp": [0-9]*/))
					al = substr(line, RSTART + 15, RLENGTH - 15)
				dest[name] = ns "|" al
			}
		}
		close(file)
	}
	BEGIN {
		flat(ARGV[1], old); flat(ARGV[2], cur)
		printf "%-40s %12s %12s %8s %10s %10s %8s\n",
			"benchmark", "ns/op(prev)", "ns/op(now)", "speedup", "ac(prev)", "ac(now)", "ratio"
		for (name in cur) {
			split(cur[name], c, "|")
			if (!(name in old)) { printf "%-40s %12s %12s (new)\n", name, "-", c[1]; continue }
			split(old[name], o, "|")
			spd = (c[1] + 0 > 0) ? sprintf("%.2fx", o[1] / c[1]) : "-"
			ar = (c[2] + 0 > 0) ? sprintf("%.2fx", o[2] / c[2]) : (o[2] + 0 > 0 ? "inf" : "-")
			printf "%-40s %12s %12s %8s %10s %10s %8s\n", name, o[1], c[1], spd, o[2], c[2], ar
		}
	}' "$prev" "$out"
fi
