package eval

import (
	"fmt"
	"io"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/telemetry/causal"
)

// Detection-latency attribution (Table 10). Every other latency number in
// the evaluation treats "attack frame in → alert out" as a black box; this
// experiment opens it with the causal tracer. Each trial runs the standard
// gateway MITM with span tracing enabled, takes the first alert naming the
// attacked binding whose span chain reaches the injected attack frame, and
// charges each hop-to-hop gap along that chain to a pipeline stage.

// detectionStages is the stage taxonomy, in pipeline order. Each Breakdown
// kind (the span kinds the fabric emits) maps onto one stage:
//
//	inject  — attacker-side frame construction (attack → tx gap)
//	queue   — NIC-to-wire handoff (tx → link gap)
//	wire    — link transit: latency + serialization + jitter (link → switch)
//	switch  — CAM lookup, filters, mirror fan-out (switch → scheme)
//	inspect — the scheme's own analysis, including any probe round-trip it
//	          schedules before committing to an alert (scheme → alert)
var detectionStages = []string{"inject", "queue", "wire", "switch", "inspect"}

// StageOfKind maps a causal span kind to its pipeline stage name. Unknown
// kinds map to themselves so novel hops surface rather than vanish.
func StageOfKind(kind string) string {
	switch kind {
	case "attack":
		return "inject"
	case "tx":
		return "queue"
	case "link":
		return "wire"
	case "switch":
		return "switch"
	case "scheme":
		return "inspect"
	}
	return kind
}

// Metric names for the live attribution surface (arpguard, the ops
// endpoint) — the same numbers Table 10 aggregates offline.
const (
	MetricDetectionStage = "detection_stage_seconds"
	MetricDetectionTotal = "detection_total_seconds"
)

// DetectionStageBuckets spans the fabric's dynamic range: microsecond wire
// hops up to multi-second probe windows.
var DetectionStageBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 5, 15,
}

// ObserveDetectionStages records one attributed detection into reg:
// detection_stage_seconds{scheme,stage} per stage plus
// detection_total_seconds{scheme} end-to-end. stages is keyed by stage name
// (StageOfKind output). The live tracing mode feeds it the same
// AttributeFirstDetection breakdown Table 10 aggregates offline, so scraped
// metrics and the table agree by construction.
func ObserveDetectionStages(reg *telemetry.Registry, scheme string, stages map[string]time.Duration, total time.Duration) {
	if reg == nil {
		return
	}
	for stage, d := range stages {
		reg.Histogram(MetricDetectionStage, DetectionStageBuckets,
			telemetry.L("scheme", scheme), telemetry.L("stage", stage)).ObserveDuration(d)
	}
	reg.Histogram(MetricDetectionTotal, DetectionStageBuckets,
		telemetry.L("scheme", scheme)).ObserveDuration(total)
}

// AttributeFirstDetection finds the first alert span in rec that names one
// of the given IPs at or after `after` and whose causal chain reaches an
// "attack" root, and returns its stage-charged latency breakdown. ok is
// false when no alert chains back to an injected frame (not detected, or
// the chain fell out of the span ring).
func AttributeFirstDetection(rec *causal.Recorder, after time.Duration, ips ...string) (stages map[string]time.Duration, total time.Duration, ok bool) {
	named := func(ip string) bool {
		for _, want := range ips {
			if ip == want {
				return true
			}
		}
		return false
	}
	var ix *causal.Index
	for _, al := range rec.Find(func(sp causal.Span) bool {
		return sp.Kind == "alert" && sp.Start >= after && named(sp.Attr("ip"))
	}) {
		if ix == nil {
			ix = rec.Index() // once per call: the ring holds up to 65,536 spans
		}
		path := ix.PathToRoot(al.ID)
		if len(path) == 0 || path[0].Kind != "attack" {
			continue
		}
		kinds, tot, bok := ix.Breakdown(al.ID)
		if !bok {
			continue
		}
		out := make(map[string]time.Duration, len(kinds))
		for kind, d := range kinds {
			out[StageOfKind(kind)] += d
		}
		return out, tot, true
	}
	return nil, 0, false
}

// WriteDetectionTrace renders the causal evidence a traced run left in
// reg: the span tree of the first injected attack and, when an alert
// naming one of ips chains back to it, the detection latency charged per
// stage. The attribution is also observed into reg, so a metrics snapshot
// (or a live /metrics scrape) carries detection_stage_seconds{scheme,stage}
// for the same run.
func WriteDetectionTrace(w io.Writer, reg *telemetry.Registry, scheme string, ips ...string) {
	rec := reg.Causal()
	fmt.Fprintf(w, "\ncausal trace (%d spans recorded, %d dropped):\n", rec.Started(), rec.Dropped())
	for _, root := range rec.Roots() {
		if root.Kind == "attack" {
			rec.WriteTree(w, root.ID)
			break // the first injected attack is the story; the rest repeat it
		}
	}
	stages, total, ok := AttributeFirstDetection(rec, 0, ips...)
	if !ok {
		fmt.Fprintln(w, "no alert chains back to an injected attack frame")
		return
	}
	ObserveDetectionStages(reg, scheme, stages, total)
	fmt.Fprintf(w, "detection latency %v:", total)
	for _, stage := range detectionStages {
		fmt.Fprintf(w, " %s=%v", stage, stages[stage])
	}
	fmt.Fprintln(w)
}

// stageCell renders one stage-latency quantile in ms (µs-scale hops keep
// three decimals so the wire stage doesn't round to zero).
func stageCell(vals []float64, q float64) string {
	if len(vals) == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3fms", stats.Quantile(vals, q))
}

// Table10StageAttribution decomposes each scheme's detection latency into
// pipeline stages via causal tracing: where does the time between the
// injected poison frame and the alert actually go?
//
// Expected shape: the fabric stages (queue, wire, switch) are microseconds
// and near-identical across schemes — the pipeline's fixed cost. The spread
// lives entirely in inspect: passive schemes alert within the inspection
// event itself (~0), while verifying schemes pay their probe round-trip
// there, so inspect share ≈ 1 for every scheme that waits before alerting.
func Table10StageAttribution(trials int) *Table {
	t := &Table{
		ID: "Table 10",
		Title: fmt.Sprintf(
			"Detection-latency attribution per pipeline stage (%d traced trials, 8 hosts)", trials),
		Columns: []string{"scheme", "attributed", "queue p50", "wire p50", "switch p50", "inspect p50", "end-to-end p50", "inspect share"},
		Notes: []string{
			"each trial traces the standard gateway MITM and charges the first correlated alert's span chain per stage",
			"attributed: trials whose first attack alert causally chains to the injected frame",
			"inspect includes any probe round-trip the scheme schedules before alerting; share = inspect / end-to-end (mean)",
		},
	}

	var cfgs []trialConfig
	for _, scheme := range DetectionSchemes() {
		for seed := int64(1); seed <= int64(trials); seed++ {
			cfgs = append(cfgs, trialConfig{
				scheme:   scheme,
				seed:     seed + 10000, // distinct seed space from Tables 3/7/8/9
				hosts:    8,
				churns:   noChurn,
				attackAt: 60 * time.Second,
				horizon:  90 * time.Second,
				stop:     stopAttributed,
			})
		}
	}
	results := CachedMap(Scope{Experiment: "table10"}, cfgs, runTrial)

	for si, scheme := range DetectionSchemes() {
		attributed := 0
		per := make(map[string][]float64, len(detectionStages))
		var totals []float64
		var shareSum float64
		for _, res := range results[si*trials : (si+1)*trials] {
			if res.stages == nil {
				continue
			}
			attributed++
			for _, st := range detectionStages {
				per[st] = append(per[st], res.stages[st].Seconds()*1000)
			}
			totals = append(totals, res.total.Seconds()*1000)
			if res.total > 0 {
				shareSum += res.stages["inspect"].Seconds() / res.total.Seconds()
			}
		}
		share := "n/a"
		if attributed > 0 {
			share = fmt.Sprintf("%.2f", shareSum/float64(attributed))
		}
		t.AddRow(scheme,
			fmt.Sprintf("%d/%d", attributed, trials),
			stageCell(per["queue"], 0.5),
			stageCell(per["wire"], 0.5),
			stageCell(per["switch"], 0.5),
			stageCell(per["inspect"], 0.5),
			stageCell(totals, 0.5),
			share,
		)
	}
	return t
}
