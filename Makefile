# Developer entry points. `make check` is the tier-1 CI gate; everything it
# runs is also runnable piecemeal with the targets below.

GO ?= go

.PHONY: check build test race vet fmt bench benchfull regen profile

check:
	./scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the same package list as check.sh's race leg.
race:
	./scripts/race.sh

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# bench runs the experiment-sized benchmarks once (and the micro-benchmarks
# at a fixed iteration count) and records (name, ns/op, allocs/op) to
# BENCH_PR10.json — the perf trajectory later PRs diff against — then prints
# a delta table vs BENCH_PR9.json (BENCH_PR2/PR5/PR6/PR7/PR8/PR9.json are
# the earlier recorded points).
bench:
	./scripts/bench.sh

# benchfull is the statistically meaningful run (multiple iterations).
benchfull:
	$(GO) test -bench=. -benchmem -run=^$$ .

# profile regenerates the heaviest experiment under the CPU and heap
# profilers; inspect with `go tool pprof cpu.prof` (or mem.prof). For live
# profiling of a long run, use `arpbench -http localhost:6060` and hit
# /debug/pprof instead.
profile:
	$(GO) run ./cmd/arpbench -run table3 -trials 5 -cache \
		-cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# regen re-renders every registered experiment at the recorded trial count
# (see EXPERIMENTS.md). Table 4 and Figure 3 use real ECDSA entropy and
# host timings, so a regenerated evaluation_output.txt differs from the
# committed one in those artifacts even on the same machine.
regen:
	$(GO) run ./cmd/arpbench -trials 10 -cache > evaluation_output.txt
