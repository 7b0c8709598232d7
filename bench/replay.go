package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/replay"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// replayStack is the deployment both replay workloads run, as
// `arpanalyze -scheme arpwatch+snort-like` would.
const replayStack = "arpwatch+snort-like"

// replayWork replays the synthetic capture once per operation through
// replay.New + Engine.Run with a telemetry registry, as arpanalyze does:
// pcap inline (Workers 1), or NDJSON through the 2-wide sharded pipeline.
type replayWork struct {
	capt      *capture
	ndjson    bool
	stack     registry.Stack
	refAlerts []byte // alert stream of the other format and width
}

func newReplay(seed int64, ndjson bool) (workload, error) {
	capt, err := synthCapture(seed)
	if err != nil {
		return nil, err
	}
	st, err := registry.ParseStack(replayStack)
	if err != nil {
		return nil, err
	}
	return &replayWork{capt: capt, ndjson: ndjson, stack: st}, nil
}

func (r *replayWork) run(_ int, sp *spans) (opResult, error) {
	var alerts bytes.Buffer
	reg := telemetry.New()
	var src replay.Source
	var ts *timedSource
	var err error
	if r.ndjson {
		src = replay.NewNDJSONSource(bytes.NewReader(r.capt.ndjson))
	} else if src, err = replay.NewPCAPSource(bytes.NewReader(r.capt.pcap)); err != nil {
		return opResult{}, err
	}
	if sp != nil {
		ts = &timedSource{Source: src}
		src = ts
	}
	st, eng, err := r.replay(src, replayWidth(r.ndjson), &alerts, reg, sp)
	if err != nil {
		return opResult{}, err
	}
	m := map[string]float64{
		"replay.frames":    float64(st.Frames),
		"replay.arp":       float64(st.ARP),
		"replay.malformed": float64(st.Malformed),
		"replay.stations":  float64(st.Stations),
	}
	snapshotCounts(reg.Snapshot(), m)
	corr := eng.Correlation()
	alertCounts(m, corr.Forwarded+corr.Suppressed, corr.Suppressed)
	if ts != nil {
		ts.record(sp, !r.ndjson)
	}
	check := func() error { return r.check(st, alerts.Bytes()) }
	return opResult{frames: float64(st.Frames), counts: m, check: check}, nil
}

// replayWidth is the ingest shard width of a format: NDJSON is parse-bound
// and runs sharded, pcap is decode-bound and runs inline.
func replayWidth(ndjson bool) int {
	if ndjson {
		return 2
	}
	return 1
}

// replay assembles the replay LAN and replays src through it.
func (r *replayWork) replay(src replay.Source, workers int, alerts *bytes.Buffer, reg *telemetry.Registry, sp *spans) (replay.Stats, *replay.Engine, error) {
	var eng *replay.Engine
	err := sp.do("replay.new", func() (err error) {
		eng, err = replay.New(replay.Config{
			Stack: r.stack, Gateway: r.capt.gw, Victim: r.capt.victim,
			Workers: workers, Alerts: alerts, Telemetry: reg,
		})
		return err
	})
	if err != nil {
		return replay.Stats{}, nil, err
	}
	var st replay.Stats
	err = sp.do("replay.run", func() (err error) {
		st, err = eng.Run(src)
		return err
	})
	return st, eng, err
}

// check compares the frame counts with the generator's and the alert
// stream with the one the other format at the other width produced: the
// inline and sharded paths must emit identical bytes.
func (r *replayWork) check(st replay.Stats, alerts []byte) error {
	if st.Frames != r.capt.frames || st.Malformed != r.capt.truncated {
		return fmt.Errorf("replayed %d frames, %d malformed; the capture has %d and %d",
			st.Frames, st.Malformed, r.capt.frames, r.capt.truncated)
	}
	if r.refAlerts == nil {
		ref, err := r.reference()
		if err != nil {
			return err
		}
		r.refAlerts = ref
	}
	if len(alerts) == 0 {
		return fmt.Errorf("no alerts for the spoofing campaign")
	}
	if !bytes.Equal(alerts, r.refAlerts) {
		return fmt.Errorf("alert stream (%d bytes) differs from the %s replay's (%d bytes)",
			len(alerts), r.otherName(), len(r.refAlerts))
	}
	return nil
}

// reference replays the capture in the other format at the other width.
// It runs lazily from the first check, after the cold operation was timed.
func (r *replayWork) reference() ([]byte, error) {
	var src replay.Source
	var err error
	if r.ndjson {
		src, err = replay.NewPCAPSource(bytes.NewReader(r.capt.pcap))
	} else {
		src = replay.NewNDJSONSource(bytes.NewReader(r.capt.ndjson))
	}
	if err != nil {
		return nil, err
	}
	var alerts bytes.Buffer
	if _, _, err := r.replay(src, replayWidth(!r.ndjson), &alerts, telemetry.New(), nil); err != nil {
		return nil, fmt.Errorf("%s reference replay: %w", r.otherName(), err)
	}
	return alerts.Bytes(), nil
}

func (r *replayWork) otherName() string {
	if r.ndjson {
		return "inline pcap"
	}
	return "sharded NDJSON"
}

// timedSource wraps a capture source to time the per-record calls. They
// are too many to record as spans; their summed time and call counts go on
// the enclosing operation span instead. Parse runs on the shard workers,
// hence the atomics.
type timedSource struct {
	replay.Source
	readNs, readCalls, parseNs, parseCalls atomic.Int64
}

func (t *timedSource) ReadRaw(buf []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	out, at, err := t.Source.ReadRaw(buf)
	t.readNs.Add(int64(time.Since(start)))
	t.readCalls.Add(1)
	return out, at, err
}

func (t *timedSource) Parse(item []byte, at time.Duration, rec *trace.WireRecord) error {
	start := time.Now()
	err := t.Source.Parse(item, at, rec)
	t.parseNs.Add(int64(time.Since(start)))
	t.parseCalls.Add(1)
	return err
}

// record attaches the per-record totals to the operation span. Inline, the
// run span minus reading and parsing is the injection path's time; sharded,
// parsing overlaps injection and the difference means nothing.
func (t *timedSource) record(sp *spans, inline bool) {
	readMs := float64(t.readNs.Load()) / 1e6
	parseMs := float64(t.parseNs.Load()) / 1e6
	sp.attr("trace.read_ms", readMs)
	sp.attr("trace.read_calls", float64(t.readCalls.Load()))
	sp.attr("trace.parse_ms", parseMs)
	sp.attr("trace.parse_calls", float64(t.parseCalls.Load()))
	if inline {
		sp.attr("replay.inject_ms", sp.lastMillis("replay.run")-readMs-parseMs)
	}
}
