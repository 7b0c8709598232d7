package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// traced measures the per-layer metrics. Half the run length goes to
// untraced operations (the runtime counters and the tracing-overhead
// baseline), half to traced ones under the harness's CPU profile (spans and
// the per-layer CPU split); counters come from the operations themselves,
// plus one instrumented rerun for workloads whose timed path runs bare.
func (s *harness) traced(w io.Writer, o options, cold opRec, inputRSS int64) (map[string]float64, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	half := seconds(o.seconds / 2)
	before := readProc()
	bare := s.phase(1, half, nil)
	after := readProc()

	profPath := filepath.Join(o.traceDir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	if err := pprof.StartCPUProfile(pf); err != nil {
		return nil, err
	}
	sp := newSpans()
	tracedOps := s.phase(1+len(bare), half, sp)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}

	m := after.perOp(before, len(bare))
	m["frames_per_s"] = framesPerSecond(bare)
	counts := map[string]float64{}
	for _, r := range tracedOps {
		for k, v := range r.counts {
			counts[k] += v
		}
	}
	for k, v := range counts {
		m[k] = v / float64(len(tracedOps))
	}
	if c, ok := s.wl.(counter); ok {
		extra, err := c.countOp(1)
		if err != nil {
			return nil, fmt.Errorf("instrumented count run: %w", err)
		}
		for k, v := range extra {
			m[k] = v
		}
	}
	deriveRatios(m)
	m["runtime.peak_rss_mb"] = float64(cold.rss) / (1 << 20)
	if hosts := cold.counts["labnet.hosts"]; hosts > 0 {
		m["labnet.rss_bytes_per_host"] = float64(cold.rss-inputRSS) / hosts
	}

	total, self, attrs, selfGap := sp.layerTimes()
	for name, v := range total {
		m[name+"_ms"] = v
	}
	for k, v := range attrs {
		m[k] = v
	}

	cpu, err := attribute(profPath)
	if err != nil {
		return nil, err
	}
	var sampled time.Duration
	cpuMs := map[string]float64{}
	for layer, d := range cpu {
		sampled += d
		cpuMs[layer] = ms(d) / float64(len(tracedOps))
		if strings.HasPrefix(layer, "runtime.") {
			m[layer+"_cpu_ms"] = cpuMs[layer]
		} else {
			m[layer+".cpu_ms"] = cpuMs[layer]
		}
	}

	bareP50 := stats.Median(opMillis(bare))
	tracedP50 := stats.Median(opMillis(tracedOps))
	overhead := tracedP50/bareP50 - 1
	named := 1 - ratio(float64(cpu["unattributed"]), float64(sampled))
	fmt.Fprintf(w, "%s seed %d: %d untraced + %d traced operations\n", o.workload, o.seed, len(bare), len(tracedOps))
	fmt.Fprintf(w, "tracing overhead %+.1f%% (op_p50_ms traced %.3f n=%d, untraced %.3f n=%d)\n",
		100*overhead, tracedP50, len(tracedOps), bareP50, len(bare))
	fmt.Fprintf(w, "cpu samples %.0f ms, %.1f%% in named layers; span self times within %.2f%% of op wall time\n",
		ms(sampled), 100*named, 100*selfGap)

	if err := sp.write(filepath.Join(o.traceDir, "spans.ndjson")); err != nil {
		return nil, err
	}
	report := map[string]any{
		"workload": o.workload, "seed": o.seed,
		"untraced_ops": len(bare), "traced_ops": len(tracedOps),
		"op_p50_ms":        map[string]float64{"untraced": bareP50, "traced": tracedP50},
		"tracing_overhead": overhead, "named_cpu_share": named, "span_self_gap": selfGap,
		"span_ms_per_op": total, "self_ms_per_op": self, "cpu_ms_per_op": cpuMs,
		"metrics": m,
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	return m, os.WriteFile(filepath.Join(o.traceDir, "layers.json"), append(raw, '\n'), 0o644)
}

// procStat is a point-in-time reading of the process's CPU time and Go
// runtime counters.
type procStat struct {
	wall    time.Time
	cpu     time.Duration
	samples []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
	"/sync/mutex/wait/total:seconds",
}

func readProc() procStat {
	p := procStat{wall: time.Now(), samples: make([]metrics.Sample, len(runtimeMetrics))}
	for i, name := range runtimeMetrics {
		p.samples[i].Name = name
	}
	metrics.Read(p.samples)
	p.cpu = cpuTime()
	return p
}

// perOp turns the change since before, over ops operations, into the
// runtime.* per-layer metrics.
func (p procStat) perOp(before procStat, ops int) map[string]float64 {
	n := float64(ops)
	u := func(i int) float64 { return float64(p.samples[i].Value.Uint64() - before.samples[i].Value.Uint64()) }
	cpu := p.cpu - before.cpu
	return map[string]float64{
		"runtime.alloc_mb_per_op":   u(0) / (1 << 20) / n,
		"runtime.mallocs_per_op":    u(1) / n,
		"runtime.gc_cycles_per_op":  u(2) / n,
		"runtime.sched_wait_p90_us": 1e6 * histQuantile(before.samples[3].Value.Float64Histogram(), p.samples[3].Value.Float64Histogram(), 0.9),
		"runtime.mutex_wait_ms":     1e3 * (p.samples[4].Value.Float64() - before.samples[4].Value.Float64()) / n,
		"runtime.cpu_ms_per_op":     ms(cpu) / n,
		"runtime.cpu_util":          cpu.Seconds() / p.wall.Sub(before.wall).Seconds(),
	}
}

// histQuantile returns the q-quantile of the samples a runtime histogram
// gained between two readings: the upper edge of the bucket holding it
// (the lower edge for the open-ended last bucket).
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum > target {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// cpuTime is the CPU time the process has used, every thread counted.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set size in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}
