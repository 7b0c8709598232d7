// NDJSON capture stream: one JSON object per line, newline-delimited — the
// structured twin of the pcap export. The stream is consumable
// incrementally (tail -f, a pipe from arpsim, an S3 multipart upload),
// which is what the replay service ingests.
//
// The line schema is pinned by testdata/capture.ndjson.golden: changing a
// field name, dropping a field, or altering an encoding breaks downstream
// ingestion, so the golden test forces such changes to be deliberate.
package trace

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"time"
)

// NDJSONRecord is the wire schema of one capture stream line. Wire carries
// the full frame bytes (standard JSON base64); the remaining fields are the
// capture Record's decoded summaries, kept so the stream is greppable
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
// megabyte line is corruption, not capture data. A line must be shorter
// than this, counting a trailing CR but not the LF.
const maxNDJSONLine = 1 << 20

// errLineTooLong reports a line that reaches maxNDJSONLine.
var errLineTooLong = fmt.Errorf("line of %d bytes or more", maxNDJSONLine)

// NDJSONReader streams WireRecords from an NDJSON capture. It splits lines
// itself on a 64 KiB bufio.Reader, so AppendLine copies a line once, from
// the reader's window into the caller's buffer.
type NDJSONReader struct {
	r   *bufio.Reader
	n   int   // lines returned so far, for error positions
	err error // the read error that ended the stream, io.EOF included
}

// NewNDJSONReader wraps r; lines of maxNDJSONLine bytes or more fail the
// read.
func NewNDJSONReader(r io.Reader) *NDJSONReader {
	return &NDJSONReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// AppendLine appends the next non-blank line to buf and returns the
// extended slice; ParseNDJSONLine turns the line into a record. The replay
// engine reads lines straight into its rounds and parses them on whichever
// goroutine claims them. io.EOF marks the end.
//
// A line ends at LF, and one CR before the LF is dropped. A line holding
// only spaces, tabs and CRs is skipped; a final line without an LF is
// kept; a line of maxNDJSONLine bytes or more fails the read. A read
// error ends the stream after the partial line read before it, which is
// returned first if it is not blank. These are bufio.Scanner's ScanLines
// rules; TestNDJSONSplitMatchesScanner holds the two to the same lines.
func (r *NDJSONReader) AppendLine(buf []byte) ([]byte, error) {
	off := len(buf)
	for r.err == nil {
		frag, err := r.r.ReadSlice('\n')
		n := len(buf) - off + len(frag) // the line's length so far
		if err == nil {
			n-- // ReadSlice stopped at the LF
		}
		if n >= maxNDJSONLine {
			r.err = errLineTooLong
			break
		}
		buf = append(buf, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			r.err = err
		}
		if n > 0 && buf[off+n-1] == '\r' {
			n--
		}
		if len(trimSpace(buf[off:off+n])) == 0 {
			buf = buf[:off]
			continue
		}
		r.n++
		return buf[:off+n], nil
	}
	if r.err == io.EOF {
		return buf[:off], io.EOF
	}
	return buf[:off], fmt.Errorf("ndjson line %d: %w", r.n, r.err)
}

// trimSpace is a minimal ASCII space/CR trim (AppendLine already strips LF).
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
		m, ok := decodeWire(rec.Wire, wire)
		var err error
		switch {
		case ok:
		case bytes.IndexByte(wire, '\r') >= 0 || bytes.IndexByte(wire, '\n') >= 0:
			// The decoder skips CR and LF, which a JSON string cannot
			// hold raw.
			err = errRawLineBreak
		default:
			m, err = base64.StdEncoding.Decode(rec.Wire, wire)
		}
		if err == nil {
			if m == 0 {
				return fmt.Errorf("ndjson: record has no wire bytes")
			}
			rec.At = at
			rec.Wire = rec.Wire[:m]
			return nil
		}
		// Fall through to the decoder: the wire value holds an escape,
		// which it resolves, or a raw line break, bad base64 or a quote
		// that ended the value early, which it reports.
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

// wireQuanta[k][c] is the 6-bit value of the standard base64 byte c
// shifted to position k of a 4-byte quantum (18, 12, 6 or 0 bits), or
// badQuantum for any other byte, so ORing a quantum's four lookups gives
// its 24 bits or a value ≥ badQuantum.
var wireQuanta = func() (t [4][256]uint32) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for k := range t {
		for c := range t[k] {
			t[k][c] = badQuantum
		}
		for v := range len(alphabet) {
			t[k][alphabet[v]] = uint32(v) << (18 - 6*k)
		}
	}
	return t
}()

const badQuantum = 1 << 24

// decodeWire decodes src into dst, which holds DecodedLen(len(src))
// bytes, when src is what WriteNDJSON emits for wire: padded standard
// base64 with no line break. It reports ok=false for anything else —
// a byte outside the alphabet, padding other than a final "=" or "==",
// a length that is not a multiple of four — and leaves that input to
// base64.StdEncoding, whose result it matches wherever it reports ok. The
// pad bits of a final quantum are ignored, as that decoder does.
func decodeWire(dst, src []byte) (n int, ok bool) {
	if len(src) == 0 || len(src)%4 != 0 {
		return 0, false
	}
	// Every quantum but the last fills three bytes and writes a fourth
	// that the next quantum overwrites; dst has room for it.
	for ; len(src) > 4; src = src[4:] {
		x := wireQuanta[0][src[0]] | wireQuanta[1][src[1]] | wireQuanta[2][src[2]] | wireQuanta[3][src[3]]
		if x >= badQuantum {
			return 0, false
		}
		binary.BigEndian.PutUint32(dst[n:], x<<8)
		n += 3
	}
	x := wireQuanta[0][src[0]] | wireQuanta[1][src[1]]
	out := 1
	if src[3] != '=' {
		x |= wireQuanta[2][src[2]] | wireQuanta[3][src[3]]
		out = 3
	} else if src[2] != '=' {
		x |= wireQuanta[2][src[2]]
		out = 2
	}
	if x >= badQuantum {
		return 0, false
	}
	for k := range out {
		dst[n+k] = byte(x >> (16 - 8*k))
	}
	return n + out, true
}

// errRawLineBreak marks a wire value holding a raw CR or LF.
var errRawLineBreak = errors.New("ndjson: raw line break in wire")

// atField opens every canonical line.
var atField = []byte(`{"at":`)

// Member kinds of the canonical line: the value scanNDJSONLine expects
// after a key.
const (
	memberInt = iota
	memberString
	memberWire
)

// canonMembers are the members after at in the order WriteNDJSON emits
// them, each key with its leading comma, quotes and colon. scanNDJSONLine
// tries the next one before it scans a key, so a canonical line costs no
// key scan (a line without info costs one).
var canonMembers = func() (ms [7]canonMember) {
	for i, m := range []struct {
		key  string
		kind int
	}{
		{`,"port":`, memberInt}, {`,"src":`, memberString}, {`,"dst":`, memberString},
		{`,"type":`, memberString}, {`,"wireLen":`, memberInt}, {`,"info":`, memberString},
		{`,"wire":`, memberWire},
	} {
		var head [8]byte
		n := copy(head[:], m.key)
		ms[i] = canonMember{
			head: binary.LittleEndian.Uint64(head[:]),
			mask: ^uint64(0) >> (64 - 8*n),
			tail: m.key[n:],
			len:  len(m.key),
			kind: m.kind,
		}
	}
	return ms
}()

// canonMember is one expected member key, matched a word at a time: its
// first eight bytes (fewer, masked, for a shorter key) as one
// little-endian word, then the rest.
type canonMember struct {
	head, mask uint64
	tail       string
	len, kind  int
}

// at reports whether the member's key starts b[i:]. The caller has
// checked b[i:] holds at least eight bytes.
func (m *canonMember) at(b []byte, i int) bool {
	return binary.LittleEndian.Uint64(b[i:])&m.mask == m.head &&
		len(b)-i >= m.len && string(b[i+m.len-len(m.tail):i+m.len]) == m.tail
}

// memberKind is the kind of a scanned key's value; ok=false for a key
// that is not the schema's or that WriteNDJSON never emits after at.
func memberKind(key []byte) (kind int, ok bool) {
	switch string(key) {
	case "port", "wireLen":
		return memberInt, true
	case "src", "dst", "type", "info":
		return memberString, true
	case "wire":
		return memberWire, true
	}
	return 0, false
}

// scanNDJSONLine extracts the at and wire fields from a canonical stream
// line without a JSON decoder. Canonical is the shape WriteNDJSON emits,
// with no whitespace:
//
//	{"at":<int>,"<field>":<value>,…,"wire":"<value>"}
//
// at comes first and wire last, and every member between is one of the
// schema's other fields with a value of its Go type: port and wireLen an
// integer, src, dst, type and info a string with no escape or control
// byte. Integers have no leading zero and fit their type. encoding/json
// accepts every such line whose wire value is valid base64 without raw
// line breaks, and reads the same at and wire from it; ok=false — a
// duplicate, unknown or differently cased key, whitespace, escaping, a
// reordered field — sends the line to the decoder. The wire value is
// returned raw: ParseNDJSONLine decodes it, and judges the bytes in it.
func scanNDJSONLine(line []byte) (at time.Duration, wire []byte, ok bool) {
	if !bytes.HasPrefix(line, atField) {
		return 0, nil, false
	}
	n, i, ok := scanInt(line, len(atField))
	if !ok {
		return 0, nil, false
	}
	for k := 0; ; {
		if i >= len(line) || line[i] != ',' {
			return 0, nil, false
		}
		var kind int
		if k < len(canonMembers) && len(line)-i >= 8 && canonMembers[k].at(line, i) {
			kind = canonMembers[k].kind
			i += canonMembers[k].len
			k++
		} else {
			key, j, ok := scanString(line, i+1)
			if !ok || j >= len(line) || line[j] != ':' {
				return 0, nil, false
			}
			if kind, ok = memberKind(key); !ok {
				return 0, nil, false
			}
			i = j + 1
		}
		switch kind {
		case memberWire:
			// The value must run to a closing '"}' at the end of the line.
			end := len(line) - 2
			if i >= end || line[i] != '"' || line[end] != '"' || line[end+1] != '}' {
				return 0, nil, false
			}
			return time.Duration(n), line[i+1 : end], true
		case memberInt:
			var v int64
			v, i, ok = scanInt(line, i)
			ok = ok && int64(int(v)) == v
		default:
			_, i, ok = scanString(line, i)
		}
		if !ok {
			return 0, nil, false
		}
	}
}

// scanInt reads a JSON integer at b[i:] — an optional minus, then 0 or a
// digit run without a leading zero — that fits in an int64, and returns it
// with the index past it. Nineteen digits cannot overflow the uint64
// accumulator, and twenty cannot fit an int64, so a longer run is
// rejected whatever the accumulator wrapped to.
func scanInt(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	limit := uint64(math.MaxInt64)
	if neg {
		i++
		limit++
	}
	if i > len(b) {
		return 0, 0, false
	}
	digits := b[i:]
	n := 0
	var u uint64
	for _, c := range digits {
		d := c - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
		n++
	}
	if n == 0 || n > 19 || u > limit || (digits[0] == '0' && n > 1) {
		return 0, 0, false
	}
	if neg {
		return -int64(u), i + n, true
	}
	return int64(u), i + n, true
}

// scanString reads a JSON string at b[i:] that holds no escape and no
// control byte, and returns its contents with the index past the closing
// quote.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	end := stringStop(b, start)
	if end == len(b) || b[end] != '"' {
		return nil, 0, false
	}
	return b[start:end], end + 1, true
}

// Byte-lane constants for stringStop's word-at-a-time scan.
const (
	lanesLow  = 0x0101010101010101
	lanesHigh = 0x8080808080808080
)

// stringStop returns the index of the first byte at or after b[i] that
// ends an unescaped JSON string's run — a quote, a backslash or a control
// byte below 0x20 — or len(b) if there is none. It tests eight bytes per
// step: in each word, (x − 0x01…) &^ x flags the zero bytes of x and
// (w − 0x20…) &^ w the bytes of w below 0x20, with x = w XOR a repeated
// quote or backslash. A borrow can only falsely flag a byte above a truly
// flagged one, so the lowest flag in the word is exact.
func stringStop(b []byte, i int) int {
	rest := b[i:]
	for len(rest) >= 8 {
		w := binary.LittleEndian.Uint64(rest)
		q := w ^ (lanesLow * '"')
		e := w ^ (lanesLow * '\\')
		if m := ((q-lanesLow)&^q | (e-lanesLow)&^e | (w-lanesLow*0x20)&^w) & lanesHigh; m != 0 {
			return len(b) - len(rest) + bits.TrailingZeros64(m)>>3
		}
		rest = rest[8:]
	}
	for j, c := range rest {
		if c == '"' || c == '\\' || c < 0x20 {
			return len(b) - len(rest) + j
		}
	}
	return len(b)
}
