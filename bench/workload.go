package main

import (
	"math/rand"

	"repro/internal/telemetry"
)

// workload is one benchmark input set. Its constructor builds every input
// from the seed; run executes one closed-loop operation through the
// program's public entry points.
type workload interface {
	// run executes operation i (0 is the cold first one). With sp non-nil it
	// records a span around each layer entry point it calls.
	run(i int, sp *spans) (opResult, error)
}

// counter is a workload whose timed operations run uninstrumented; the
// traced run repeats one operation with a telemetry registry attached to
// read the counters only telemetry exposes.
type counter interface {
	countOp(i int) (map[string]float64, error)
}

// opResult is what one operation produced.
type opResult struct {
	// frames handled, for frames_per_s (0 where the workload has no frame
	// counter the harness can read).
	frames float64
	// counts are per-layer counters read from public Stats() methods and
	// telemetry snapshots; they repeat exactly for a given seed.
	counts map[string]float64
	// check verifies the operation's output; the harness runs it outside the
	// timed region.
	check func() error
}

// workloads maps each BENCHMARK.json workload name to its constructor.
var workloads = map[string]func(seed int64, root string) (workload, error){
	"eval-suite":    newEvalSuite,
	"replay-pcap":   func(seed int64, _ string) (workload, error) { return newReplay(seed, false) },
	"replay-ndjson": func(seed int64, _ string) (workload, error) { return newReplay(seed, true) },
	"lan-128":       newLAN128,
	"campus-1e6":    newCampus,
}

// opSeeds derives the seeds the flat-LAN and campus workloads cycle their
// operations through, so each seed repeats and its result digest can be
// checked against the first run.
func opSeeds(seed int64) [10]int64 {
	rng := rand.New(rand.NewSource(seed))
	var out [10]int64
	for i := range out {
		out[i] = rng.Int63n(1<<31) + 1
	}
	return out
}

// snapshotCounts reads the per-layer counters a telemetry snapshot carries:
// the switch, host stacks, scheduler, scheme probes and filter verdicts,
// and the sharded engine.
func snapshotCounts(snap telemetry.Snapshot, m map[string]float64) {
	sum := func(name string, match func(map[string]string) bool) float64 {
		var v float64
		for _, c := range snap.Counters {
			if c.Name == name && (match == nil || match(c.Labels)) {
				v += float64(c.Value)
			}
		}
		return v
	}
	m["netsim.forwarded"] = sum("switch_frames_forwarded_total", nil)
	m["netsim.flooded"] = sum("switch_frames_flooded_total", nil)
	m["netsim.filtered"] = sum("switch_frames_filtered_total", nil)
	m["stack.cache_hits"] = sum("stack_cache_hits_total", nil)
	m["stack.cache_misses"] = sum("stack_cache_misses_total", nil)
	m["stack.resolutions"] = sum("stack_resolutions_total", nil)
	m["stack.resolve_retries"] = sum("stack_resolve_retries_total", nil)
	m["sim.events"] = sum("sim_events_executed_total", nil)
	for _, g := range snap.Gauges {
		if g.Name == "sim_queue_depth_highwater" {
			m["sim.queue_highwater"] = g.Value
		}
	}
	m["sim.shard_rounds"] = sum("shard_rounds_total", nil)
	m["sim.shard_sync_waits"] = sum("shard_sync_waits_total", nil)
	m["sim.cross_lan_frames"] = sum("cross_lan_frames_total", nil)
	m["schemes.probes_sent"] = sum("scheme_probes_sent_total", nil)
	m["schemes.filter_drops"] = sum("scheme_filter_verdicts_total",
		func(l map[string]string) bool { return l["verdict"] == "drop" })
}

// alertCounts records the alerts the schemes raised and how many of them
// the stack correlators suppressed as duplicates.
func alertCounts(m map[string]float64, raised, suppressed int) {
	m["schemes.alerts"] = float64(raised)
	m["schemes.suppressed"] = float64(suppressed)
}

// deriveRatios adds the per-layer ratios, taken over the per-operation
// mean counts.
func deriveRatios(m map[string]float64) {
	frames := m["netsim.forwarded"] + m["netsim.flooded"]
	m["netsim.flood_share"] = ratio(m["netsim.flooded"], frames)
	m["sim.events_per_frame"] = ratio(m["sim.events"], frames)
	m["stack.cache_hit_ratio"] = ratio(m["stack.cache_hits"], m["stack.cache_hits"]+m["stack.cache_misses"])
	m["registry.corr_suppressed_share"] = ratio(m["schemes.suppressed"], m["schemes.alerts"])
	m["replay.arp_share"] = ratio(m["replay.arp"], m["replay.frames"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
