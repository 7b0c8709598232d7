package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"repro/internal/frame"
)

// FuzzPCAPReader feeds arbitrary bytes to the pcap reader, which must
// return errors rather than panic, never hand out a record buffer larger
// than maxPCAPRecord, and never report more records than the input has
// room for. It reads through ReadAppend, the call replay.PCAPSource makes.
// The same bytes also describe a capture (see fuzzCapture), which must
// survive WritePCAP and a read back unchanged. The seed corpus lives in
// testdata/fuzz/FuzzPCAPReader.
func FuzzPCAPReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := NewPCAPReader(bytes.NewReader(data)); err == nil {
			var buf []byte
			for n := 0; ; n++ {
				var err error
				buf, _, err = r.ReadAppend(buf[:0])
				if cap(buf) > maxPCAPRecord {
					t.Fatalf("record %d: buffer of %d bytes, past the %d cap", n, cap(buf), maxPCAPRecord)
				}
				if err != nil {
					break
				}
				if 24+16*(n+1) > len(data) {
					t.Fatalf("record %d read from %d bytes of input", n, len(data))
				}
			}
		}

		c := fuzzCapture(data)
		var buf bytes.Buffer
		if err := c.WritePCAP(&buf); err != nil {
			t.Fatalf("WritePCAP: %v", err)
		}
		r, err := NewPCAPReader(&buf)
		if err != nil {
			t.Fatalf("NewPCAPReader on WritePCAP output: %v", err)
		}
		var got []byte
		for i, want := range c.Records() {
			off := len(got)
			var at time.Duration
			if got, at, err = r.ReadAppend(got); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if wantAt := want.At.Truncate(time.Microsecond); at != wantAt {
				t.Fatalf("record %d: at %v, want %v", i, at, wantAt)
			}
			wire, err := want.Frame.Encode()
			if err != nil {
				t.Fatalf("encode record %d: %v", i, err)
			}
			if !bytes.Equal(got[off:], wire) {
				t.Fatalf("record %d: wire bytes differ\ngot  %x\nwant %x", i, got[off:], wire)
			}
		}
		if _, _, err := r.ReadAppend(got); err != io.EOF {
			t.Fatalf("after the last record: %v, want io.EOF", err)
		}
	})
}

// fuzzCapture reads data as a run of frame descriptions, each a 4-byte
// head (gap, EtherType high and low byte, payload length) followed by up
// to that many payload bytes, and taps them into a fresh capture. A frame
// arrives gap×1001ns after the previous one, so timestamps carry
// sub-microsecond parts that WritePCAP must truncate.
func fuzzCapture(data []byte) *Capture {
	c := NewCapture(len(data)/4 + 1) // one record per 4-byte head at most
	tap := c.Tap()
	var at time.Duration
	for len(data) >= 4 {
		gap, typ, n := data[0], binary.BigEndian.Uint16(data[1:3]), int(data[3])
		data = data[4:]
		n = min(n, len(data))
		at += time.Duration(gap) * 1001 * time.Nanosecond
		fr := &frame.Frame{Dst: macB, Src: macA, Type: frame.EtherType(typ), Payload: data[:n]}
		data = data[n:]
		ev := tapEvent(fr, 0)
		ev.At = at
		tap(ev)
	}
	return c
}

// FuzzNDJSONLine checks ParseNDJSONLine, fast scan included, against
// encoding/json (see checkNDJSONLine). The seed corpus in
// testdata/fuzz/FuzzNDJSONLine holds WriteNDJSON lines and lines that
// once read differently on the two paths: an overflowing or zero-led at,
// and an at nested in another member or duplicated. The edge table of
// scan_test.go seeds it too: quotes, escapes, control and non-ASCII bytes
// at every offset around the word-at-a-time scans' word boundaries.
func FuzzNDJSONLine(f *testing.F) {
	for _, line := range edgeLines() {
		f.Add(line)
	}
	f.Fuzz(checkNDJSONLine)
}
