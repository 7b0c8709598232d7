package replay

import (
	"fmt"
	"io"
	"time"

	"repro/internal/frame"
	"repro/internal/trace"
)

// Source is a capture stream split at the seam the ingest pipeline needs: a
// strictly sequential raw read (one item = one undecoded record) and a
// pure, concurrency-safe parse. ReadRaw is called by one goroutine at a
// time, in stream order — whichever holds the pipeline's fill turn; Parse
// may run on any of them, on distinct items, concurrently.
type Source interface {
	// ReadRaw appends the next raw item to buf and returns the extended
	// slice, plus the record timestamp when the framing carries it outside
	// the item (pcap does; NDJSON returns 0 and parses it from the item).
	// io.EOF marks a clean end of stream.
	ReadRaw(buf []byte) ([]byte, time.Duration, error)
	// Parse decodes one raw item (as returned by ReadRaw) into rec,
	// reusing rec.Wire. It must not retain item or touch Source state.
	// The pipeline hands it a rec.Wire with room for len(item)
	// bytes, so a Parse whose output is no longer than its input
	// allocates nothing.
	Parse(item []byte, at time.Duration, rec *trace.WireRecord) error
}

// PCAPSource adapts a classic pcap stream. The raw item is the frame bytes
// (the 16-octet record header is consumed by ReadRaw, which is where the
// timestamp lives), so Parse is a copy and parsing helpers only buy
// overlap of that copy with injection. Reading is not free: in CPU
// profiles of the benchmark's width-1 replay (200k records, before ingest
// was one round pipeline at every width), ReadRaw and Parse took 20% of
// the Run when the reader made three io.ReadFull calls per record and 11%
// when it reads records out of its buffered window; injection takes the
// rest.
type PCAPSource struct {
	r *trace.PCAPReader
}

// NewPCAPSource opens a classic pcap stream (both endiannesses, µs or ns
// timestamps).
func NewPCAPSource(r io.Reader) (*PCAPSource, error) {
	pr, err := trace.NewPCAPReader(r)
	if err != nil {
		return nil, err
	}
	return &PCAPSource{r: pr}, nil
}

// ReadRaw appends the next frame's bytes and returns its timestamp.
func (s *PCAPSource) ReadRaw(buf []byte) ([]byte, time.Duration, error) {
	return s.r.ReadAppend(buf)
}

// Parse copies the frame bytes into rec at the framing-provided timestamp.
func (s *PCAPSource) Parse(item []byte, at time.Duration, rec *trace.WireRecord) error {
	if len(item) < frame.HeaderLen {
		return fmt.Errorf("pcap record: %d bytes is shorter than an Ethernet header", len(item))
	}
	rec.At = at
	rec.Wire = append(rec.Wire[:0], item...)
	return nil
}

// NDJSONSource adapts the trace NDJSON capture stream. The raw item is one
// line; Parse is the JSON decode plus base64 — the expensive half of
// ingestion, which is exactly what sharding parallelizes.
type NDJSONSource struct {
	r *trace.NDJSONReader
}

// NewNDJSONSource opens an NDJSON capture stream.
func NewNDJSONSource(r io.Reader) *NDJSONSource {
	return &NDJSONSource{r: trace.NewNDJSONReader(r)}
}

// ReadRaw appends the next non-blank line; NDJSON carries the timestamp
// inside the line, so the framing timestamp is always 0.
func (s *NDJSONSource) ReadRaw(buf []byte) ([]byte, time.Duration, error) {
	buf, err := s.r.AppendLine(buf)
	return buf, 0, err
}

// Parse decodes one stream line.
func (s *NDJSONSource) Parse(item []byte, _ time.Duration, rec *trace.WireRecord) error {
	return trace.ParseNDJSONLine(item, rec)
}
