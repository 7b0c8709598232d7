// NDJSON capture stream: one JSON object per line, newline-delimited — the
// structured twin of the pcap export. Unlike WriteJSON's single indented
// document, the stream is consumable incrementally (tail -f, a pipe from
// arpsim, an S3 multipart upload), which is what the replay service ingests.
//
// The line schema is pinned by testdata/capture.ndjson.golden: changing a
// field name, dropping a field, or altering an encoding breaks downstream
// ingestion, so the golden test forces such changes to be deliberate.
package trace

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// NDJSONRecord is the wire schema of one capture stream line. Wire carries
// the full frame bytes (standard JSON base64); the remaining fields are the
// same decoded summaries WriteJSON exports, kept so the stream is greppable
// without decoding frames.
type NDJSONRecord struct {
	At      time.Duration `json:"at"`
	Port    int           `json:"port"`
	Src     string        `json:"src"`
	Dst     string        `json:"dst"`
	Type    string        `json:"type"`
	WireLen int           `json:"wireLen"`
	Info    string        `json:"info,omitempty"`
	Wire    []byte        `json:"wire"`
}

// WriteNDJSON exports the retained records as an NDJSON stream, oldest
// first. Each line round-trips through NDJSONReader.
func (c *Capture) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var wire []byte
	i := 0
	err := c.each(func(r Record) error {
		i++
		var err error
		wire, err = r.Frame.AppendEncode(wire[:0])
		if err != nil {
			return fmt.Errorf("ndjson record %d: %w", i-1, err)
		}
		line := NDJSONRecord{
			At:      r.At,
			Port:    r.Port,
			Src:     r.Src,
			Dst:     r.Dst,
			Type:    r.Type,
			WireLen: r.WireLen,
			Info:    r.Info,
			Wire:    wire,
		}
		if err := enc.Encode(&line); err != nil {
			return fmt.Errorf("ndjson record %d: %w", i-1, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// maxNDJSONLine bounds one stream line; a frame is at most ~1.5 KiB so a
// megabyte line is corruption, not capture data.
const maxNDJSONLine = 1 << 20

// NDJSONReader streams WireRecords from an NDJSON capture.
type NDJSONReader struct {
	s *bufio.Scanner
	n int
}

// NewNDJSONReader wraps r; lines beyond maxNDJSONLine fail the read.
func NewNDJSONReader(r io.Reader) *NDJSONReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64<<10), maxNDJSONLine)
	return &NDJSONReader{s: s}
}

// Next fills rec from the next non-empty line. io.EOF marks the end.
func (r *NDJSONReader) Next(rec *WireRecord) error {
	line, err := r.ReadLine()
	if err != nil {
		return err
	}
	return ParseNDJSONLine(line, rec)
}

// ReadLine returns the next non-empty raw line (valid until the following
// call), for callers that parse lines elsewhere — the replay engine ships
// raw lines to its worker pool and calls ParseNDJSONLine there.
func (r *NDJSONReader) ReadLine() ([]byte, error) {
	for r.s.Scan() {
		line := r.s.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		r.n++
		return line, nil
	}
	if err := r.s.Err(); err != nil {
		return nil, fmt.Errorf("ndjson line %d: %w", r.n, err)
	}
	return nil, io.EOF
}

// trimSpace is a minimal ASCII space/CR trim (scanner already strips LF).
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// ParseNDJSONLine decodes one stream line into rec. It is safe to call
// concurrently from multiple goroutines on distinct records — the sharded
// ingest path's per-worker parse step.
//
// Replay only needs two of the line's fields (at, wire), so the canonical
// shape WriteNDJSON emits is scanned directly — an order of magnitude
// cheaper than reflective unmarshaling, which is what makes NDJSON ingest
// keep up with pcap. Lines the scan does not recognize (foreign producer,
// reordered fields, escaping) fall back to full json.Unmarshal.
func ParseNDJSONLine(line []byte, rec *WireRecord) error {
	if at, wire, ok := scanNDJSONLine(line); ok {
		n := base64.StdEncoding.DecodedLen(len(wire))
		if cap(rec.Wire) < n {
			rec.Wire = make([]byte, n)
		}
		rec.Wire = rec.Wire[:n]
		m, err := base64.StdEncoding.Decode(rec.Wire, wire)
		if err == nil {
			if m == 0 {
				return fmt.Errorf("ndjson: record has no wire bytes")
			}
			rec.At = at
			rec.Wire = rec.Wire[:m]
			return nil
		}
		// fall through: the wire value holds an escape, which the
		// decoder resolves, or bad base64, which it reports
	}
	var nr NDJSONRecord
	if err := json.Unmarshal(line, &nr); err != nil {
		return fmt.Errorf("ndjson: %w", err)
	}
	if len(nr.Wire) == 0 {
		return fmt.Errorf("ndjson: record has no wire bytes")
	}
	rec.At = nr.At
	rec.Wire = append(rec.Wire[:0], nr.Wire...)
	return nil
}

// atField opens every canonical line.
var atField = []byte(`{"at":`)

// scanNDJSONLine extracts the at and wire fields from a canonical stream
// line without a JSON decoder. Canonical is the shape WriteNDJSON emits,
// with no whitespace:
//
//	{"at":<int>,"<field>":<value>,…,"wire":"<base64>"}
//
// at comes first and wire last, and every member between is one of the
// schema's other fields with a value of its Go type: port and wireLen an
// integer, src, dst, type and info a string with no escape or control
// byte. Integers have no leading zero and fit their type. encoding/json
// accepts every such line and reads the same at and wire from it, so the
// scan is exact there; ok=false — a duplicate, unknown or differently
// cased key, whitespace, escaping, a reordered field — sends the line to
// the decoder.
func scanNDJSONLine(line []byte) (at time.Duration, wire []byte, ok bool) {
	if !bytes.HasPrefix(line, atField) {
		return 0, nil, false
	}
	n, i, ok := scanInt(line, len(atField))
	if !ok {
		return 0, nil, false
	}
	for {
		if i >= len(line) || line[i] != ',' {
			return 0, nil, false
		}
		key, j, ok := scanString(line, i+1)
		if !ok || j >= len(line) || line[j] != ':' {
			return 0, nil, false
		}
		i = j + 1
		switch string(key) {
		case "wire":
			// The value must run to a closing '"}' at the end of the line.
			// It is left to the caller's base64 decode, which rejects every
			// byte a JSON string would escape except CR and LF: it skips
			// those, where the decoder rejects them raw.
			end := len(line) - 2
			if i >= end || line[i] != '"' || line[end] != '"' || line[end+1] != '}' {
				return 0, nil, false
			}
			v := line[i+1 : end]
			if bytes.IndexByte(v, '"') >= 0 || bytes.IndexByte(v, '\r') >= 0 || bytes.IndexByte(v, '\n') >= 0 {
				return 0, nil, false
			}
			return time.Duration(n), v, true
		case "port", "wireLen":
			var v int64
			v, i, ok = scanInt(line, i)
			ok = ok && int64(int(v)) == v
		case "src", "dst", "type", "info":
			_, i, ok = scanString(line, i)
		default:
			ok = false
		}
		if !ok {
			return 0, nil, false
		}
	}
}

// scanInt reads a JSON integer at b[i:] — an optional minus, then 0 or a
// digit run without a leading zero — that fits in an int64, and returns it
// with the index past it. Nineteen digits cannot overflow the uint64
// accumulator, and twenty cannot fit an int64.
func scanInt(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	limit := uint64(math.MaxInt64)
	if neg {
		i++
		limit++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if i-start == 19 {
			return 0, 0, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	if i == start || u > limit || (b[start] == '0' && i-start > 1) {
		return 0, 0, false
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// scanString reads a JSON string at b[i:] that holds no escape and no
// control byte, and returns its contents with the index past the closing
// quote.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	for i = start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[start:i], i + 1, true
		case c < 0x20 || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}
