// Package trace records frames observed at taps into an in-memory capture
// that can be filtered, summarized, and exported as pcap or an NDJSON
// stream — the framework's equivalent of a pcap file plus the first page
// of Wireshark statistics.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/arppkt"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// Record is one captured frame with decoded summaries.
type Record struct {
	At      time.Duration
	Port    int
	Src     string
	Dst     string
	Type    string
	WireLen int
	Info    string
	ARP     *arppkt.Packet
	Frame   *frame.Frame
}

// Capture accumulates records from one or more taps. Captures are bounded:
// when max is exceeded the oldest records are discarded, so long simulations
// cannot exhaust memory. Retention is a circular buffer — once full, each
// new record overwrites the oldest in place, so steady-state appends are
// O(1) regardless of capacity.
type Capture struct {
	max     int
	buf     []Record // circular storage, capacity max
	head    int      // index of the oldest record when full
	n       int      // records currently retained (≤ max)
	dropped uint64
	stats   Stats

	// Telemetry handles; nil (no-op) unless Instrument is called.
	cFrames, cBytes, cDropped *telemetry.Counter
}

// Stats summarizes a capture.
type Stats struct {
	Frames     uint64            `json:"frames"`
	Bytes      uint64            `json:"bytes"`
	ByType     map[string]uint64 `json:"byType"`
	ARPOps     map[string]uint64 `json:"arpOps"`
	Gratuitous uint64            `json:"gratuitous"`
	Broadcast  uint64            `json:"broadcast"`
	Dropped    uint64            `json:"dropped"`
}

// NewCapture creates a capture retaining at most max records (0 means the
// default of 65536).
func NewCapture(max int) *Capture {
	if max <= 0 {
		max = 65536
	}
	return &Capture{
		max:   max,
		stats: Stats{ByType: make(map[string]uint64), ARPOps: make(map[string]uint64)},
	}
}

// Instrument exposes the capture as telemetry: capture_frames_total and
// capture_bytes_total count what the tap observed, and
// capture_dropped_total counts records the ring bound discarded — the
// counter that makes a lossy (undersized) capture visible on /metrics
// instead of silently truncating what the analysis downstream sees.
func (c *Capture) Instrument(reg *telemetry.Registry) {
	c.cFrames = reg.Counter("capture_frames_total")
	c.cBytes = reg.Counter("capture_bytes_total")
	c.cDropped = reg.Counter("capture_dropped_total")
}

// Tap returns a netsim.TapFunc that feeds this capture; install it on a
// switch or hub.
func (c *Capture) Tap() netsim.TapFunc {
	return func(ev netsim.TapEvent) { c.observe(ev) }
}

// observe ingests one tap event.
func (c *Capture) observe(ev netsim.TapEvent) {
	if c.max <= 0 {
		c.max = 65536 // zero-value Capture gets the default bound
	}
	typ, p := c.stats.count(ev)
	if c.cFrames != nil {
		c.cFrames.Inc()
		c.cBytes.Add(uint64(ev.WireLen))
	}
	r := Record{
		At:      ev.At,
		Port:    ev.Port,
		Src:     ev.Frame.Src.String(),
		Dst:     ev.Frame.Dst.String(),
		Type:    typ,
		WireLen: ev.WireLen,
		Frame:   ev.Frame,
	}
	if p != nil {
		r.ARP = p
		r.Info = p.String()
	}
	if c.buf == nil {
		c.buf = make([]Record, 0, c.max)
	}
	if c.n < c.max {
		c.buf = append(c.buf, r)
		c.n++
		return
	}
	// Full: overwrite the oldest slot and advance the head.
	c.buf[c.head] = r
	c.head = (c.head + 1) % c.max
	c.dropped++
	if c.cDropped != nil {
		c.cDropped.Inc()
	}
}

// count adds one tap event to the summary and returns the frame's type
// name and its ARP packet (nil unless the payload decodes as ARP).
func (s *Stats) count(ev netsim.TapEvent) (string, *arppkt.Packet) {
	if s.ByType == nil {
		s.ByType = make(map[string]uint64)
		s.ARPOps = make(map[string]uint64)
	}
	typ := ev.Frame.Type.String()
	s.Frames++
	s.Bytes += uint64(ev.WireLen)
	s.ByType[typ]++
	if ev.Frame.IsBroadcast() {
		s.Broadcast++
	}
	if ev.Frame.Type != frame.TypeARP {
		return typ, nil
	}
	p, err := arppkt.DecodeFrame(ev.Frame)
	if err != nil {
		return typ, nil
	}
	s.ARPOps[p.Op.String()]++
	if p.IsGratuitous() {
		s.Gratuitous++
	}
	return typ, p
}

// snapshot returns a copy of the summary with its maps cloned and Dropped
// set.
func (s *Stats) snapshot(dropped uint64) Stats {
	out := *s
	out.Dropped = dropped
	out.ByType = make(map[string]uint64, len(s.ByType))
	for k, v := range s.ByType {
		out.ByType[k] = v
	}
	out.ARPOps = make(map[string]uint64, len(s.ARPOps))
	for k, v := range s.ARPOps {
		out.ARPOps[k] = v
	}
	return out
}

// Tally is a capture that keeps only the summary: the same Stats a
// Capture of the same bound would report, Dropped included, without
// retaining a record or formatting a field. Use it where only Stats is
// read.
type Tally struct {
	max   int
	stats Stats
}

// NewTally creates a tally whose Stats count as dropped the frames a
// Capture of bound max would have discarded (0 means the default of
// 65536).
func NewTally(max int) *Tally {
	if max <= 0 {
		max = 65536
	}
	return &Tally{max: max}
}

// Tap returns a netsim.TapFunc that feeds this tally.
func (t *Tally) Tap() netsim.TapFunc {
	return func(ev netsim.TapEvent) { t.stats.count(ev) }
}

// Stats returns a copy of the summary. Dropped is the count of frames
// beyond the bound.
func (t *Tally) Stats() Stats {
	var dropped uint64
	if t.stats.Frames > uint64(t.max) {
		dropped = t.stats.Frames - uint64(t.max)
	}
	return t.stats.snapshot(dropped)
}

// Len returns the number of retained records.
func (c *Capture) Len() int { return c.n }

// Dropped returns how many records were discarded by the ring bound.
func (c *Capture) Dropped() uint64 { return c.dropped }

// each calls fn for every retained record, oldest first.
func (c *Capture) each(fn func(Record) error) error {
	for i := 0; i < c.n; i++ {
		if err := fn(c.buf[(c.head+i)%c.max]); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a copy of the capture summary, including how many records
// the ring bound discarded.
func (c *Capture) Stats() Stats { return c.stats.snapshot(c.dropped) }

// Records returns the retained records, oldest first. The slice is a copy;
// the frames inside are shared and must be treated as read-only.
func (c *Capture) Records() []Record {
	out := make([]Record, 0, c.n)
	c.each(func(r Record) error {
		out = append(out, r)
		return nil
	})
	return out
}

// Filter returns the retained records matching pred, oldest first.
func (c *Capture) Filter(pred func(Record) bool) []Record {
	var out []Record
	c.each(func(r Record) error {
		if pred(r) {
			out = append(out, r)
		}
		return nil
	})
	return out
}

// ARPOnly returns only records carrying decodable ARP packets.
func (c *Capture) ARPOnly() []Record {
	return c.Filter(func(r Record) bool { return r.ARP != nil })
}

// pcap constants (libpcap classic format, microsecond timestamps).
const (
	pcapMagic    = 0xa1b2c3d4
	pcapVersionM = 2
	pcapVersionN = 4
	pcapSnapLen  = 65535
	pcapEthernet = 1
)

// WritePCAP exports the retained frames as a classic libpcap capture that
// Wireshark and tcpdump open directly; virtual capture timestamps map to
// seconds/microseconds since the Unix epoch.
func (c *Capture) WritePCAP(w io.Writer) error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionM)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionN)
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], pcapEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap header: %w", err)
	}
	i := 0
	return c.each(func(r Record) error {
		i++
		wire, err := r.Frame.Encode()
		if err != nil {
			return fmt.Errorf("pcap record %d: %w", i-1, err)
		}
		var rec [16]byte
		binary.LittleEndian.PutUint32(rec[0:4], uint32(r.At/time.Second))
		binary.LittleEndian.PutUint32(rec[4:8], uint32((r.At%time.Second)/time.Microsecond))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(wire)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(wire)))
		if _, err := w.Write(rec[:]); err != nil {
			return fmt.Errorf("pcap record %d: %w", i-1, err)
		}
		if _, err := w.Write(wire); err != nil {
			return fmt.Errorf("pcap record %d: %w", i-1, err)
		}
		return nil
	})
}
