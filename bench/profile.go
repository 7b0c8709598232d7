package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layerOf maps each repro/internal package (by its first path element) to
// the layer its CPU samples count toward.
var layerOf = map[string]string{
	"eval": "eval", "stats": "eval", "analysis": "eval",
	"replay":   "replay",
	"trace":    "trace",
	"scenario": "scenario",
	"labnet":   "labnet",
	"sim":      "sim",
	"netsim":   "netsim",
	"stack":    "stack", "dhcp": "stack",
	"schemes": "schemes", "core": "schemes",
	"arppkt": "codec", "frame": "codec", "ipv4pkt": "codec", "ethaddr": "codec",
	"attack": "attack", "traffic": "attack",
	"faults":    "faults",
	"telemetry": "telemetry", "ops": "telemetry",
}

// gcFrames are the runtime functions whose presence anywhere in a stack
// marks the sample as garbage-collector work: background mark workers,
// allocation assists, sweeping and scavenging, write-barrier flushes.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim", "runtime.deductSweepCredit",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.greyobject", "runtime.wbBufFlush",
}

// attribute splits a CPU profile by layer with `go tool pprof -traces`:
// a sample with a GC frame goes to runtime.gc, any other sample to the
// layer of its innermost repro/internal frame (so map and malloc helpers
// count toward their caller), and a sample with no repository frame to
// runtime.other. Samples in a repository package with no layer go to
// "unattributed".
func attribute(profile string) (map[string]time.Duration, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads pprof's -traces text: header lines, then one block per
// distinct stack, "-----------+---" separated, whose first line carries
// the sample time before the innermost frame.
func parseTraces(out []byte) (map[string]time.Duration, error) {
	byLayer := map[string]time.Duration{}
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byLayer[sampleLayer(frames)] += value
		}
		frames = frames[:0]
	}
	started := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", fields[0], err)
			}
			value = v
			fields = fields[1:]
		}
		frames = append(frames, strings.TrimSuffix(strings.Join(fields, " "), " (inline)"))
	}
	flush()
	return byLayer, sc.Err()
}

// sampleLayer names the layer one stack (innermost frame first) counts
// toward.
func sampleLayer(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range frames {
		pkg, ok := strings.CutPrefix(packageOf(f), "repro/internal/")
		if !ok {
			continue
		}
		first, _, _ := strings.Cut(pkg, "/")
		if layer, ok := layerOf[first]; ok {
			return layer
		}
		return "unattributed"
	}
	return "runtime.other"
}

// packageOf returns the import path of a pprof function name such as
// "repro/internal/netsim.(*Switch).ingress" or a generic instantiation
// "repro/internal/eval.Map[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}
