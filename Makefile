# Developer entry points. `make check` is the tier-1 CI gate; everything it
# runs is also runnable piecemeal with the targets below.

GO ?= go

.PHONY: check build test race vet fmt bench regen profile

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

# bench runs every go-test benchmark of the root, replay and trace packages
# ten times, so each one reports a spread rather than a single sample.
# End-to-end perf claims go through scripts/ab.sh, which pairs base and
# working-tree runs of the bench/ workloads.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 10 . ./internal/replay ./internal/trace

# profile regenerates the heaviest experiment under the CPU and heap
# profilers; inspect with `go tool pprof cpu.prof` (or mem.prof). For live
# profiling of a long run, use `arpbench -http localhost:6060` and hit
# /debug/pprof instead.
profile:
	$(GO) run ./cmd/arpbench -run table3 -trials 5 \
		-cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# regen re-renders every registered experiment at the recorded trial count
# (see EXPERIMENTS.md). Table 4 and Figure 3 use real ECDSA entropy and
# host timings, so a regenerated evaluation_output.txt differs from the
# committed one in those artifacts even on the same machine.
regen:
	$(GO) run ./cmd/arpbench -trials 10 > evaluation_output.txt
