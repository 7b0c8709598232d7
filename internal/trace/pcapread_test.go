package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/frame"
)

// fixtureCapture builds a small deterministic capture: a resolution
// exchange, a gratuitous announcement, and an IPv4 datagram, spread over
// distinct timestamps so reader tests can verify times as well as bytes.
func fixtureCapture() *Capture {
	c := NewCapture(0)
	tap := c.Tap()
	evs := []struct {
		at time.Duration
		f  *frame.Frame
	}{
		{10 * time.Millisecond, arpFrame(arppkt.NewRequest(macA, ipA, ipB), macA, ethaddr.BroadcastMAC)},
		{10*time.Millisecond + 150*time.Microsecond, arpFrame(arppkt.NewReply(macB, ipB, macA, ipA), macB, macA)},
		{2 * time.Second, arpFrame(arppkt.NewGratuitousRequest(macA, ipA), macA, ethaddr.BroadcastMAC)},
		{3*time.Second + 42*time.Microsecond, &frame.Frame{Dst: macB, Src: macA, Type: frame.TypeIPv4, Payload: make([]byte, 100)}},
	}
	for _, ev := range evs {
		e := tapEvent(ev.f, 0)
		e.At = ev.at
		tap(e)
	}
	return c
}

// TestPCAPRoundTrip pins that the reader consumes exactly what the writer
// produces: same record count, same microsecond-truncated timestamps, and
// byte-identical frames (the writer pads to the Ethernet minimum, so the
// comparison re-encodes the originals the same way).
func TestPCAPRoundTrip(t *testing.T) {
	c := fixtureCapture()
	var buf bytes.Buffer
	if err := c.WritePCAP(&buf); err != nil {
		t.Fatalf("WritePCAP: %v", err)
	}
	r, err := NewPCAPReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewPCAPReader: %v", err)
	}
	recs := c.Records()
	var rec WireRecord
	for i, want := range recs {
		if rec.Wire, rec.At, err = r.ReadAppend(rec.Wire[:0]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		wantAt := want.At.Truncate(time.Microsecond)
		if rec.At != wantAt {
			t.Errorf("record %d: at %v, want %v", i, rec.At, wantAt)
		}
		wire, err := want.Frame.Encode()
		if err != nil {
			t.Fatalf("encode record %d: %v", i, err)
		}
		if !bytes.Equal(rec.Wire, wire) {
			t.Errorf("record %d: wire bytes differ\ngot  %x\nwant %x", i, rec.Wire, wire)
		}
	}
	if _, _, err := r.ReadAppend(nil); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
}

// TestPCAPReaderBigEndianNanos exercises the foreign-capture path: a
// big-endian nanosecond-resolution file (what a tcpdump on a big-endian
// box with --time-stamp-precision=nano writes).
func TestPCAPReaderBigEndianNanos(t *testing.T) {
	f := arpFrame(arppkt.NewGratuitousReply(macA, ipA), macA, ethaddr.BroadcastMAC)
	wire, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var hdr [24]byte
	binary.BigEndian.PutUint32(hdr[0:4], pcapMagicNanos)
	binary.BigEndian.PutUint16(hdr[4:6], pcapVersionM)
	binary.BigEndian.PutUint16(hdr[6:8], pcapVersionN)
	binary.BigEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.BigEndian.PutUint32(hdr[20:24], pcapEthernet)
	buf.Write(hdr[:])
	var rh [16]byte
	binary.BigEndian.PutUint32(rh[0:4], 7)         // seconds
	binary.BigEndian.PutUint32(rh[4:8], 123456789) // nanoseconds
	binary.BigEndian.PutUint32(rh[8:12], uint32(len(wire)))
	binary.BigEndian.PutUint32(rh[12:16], uint32(len(wire)))
	buf.Write(rh[:])
	buf.Write(wire)

	r, err := NewPCAPReader(&buf)
	if err != nil {
		t.Fatalf("NewPCAPReader: %v", err)
	}
	got, at, err := r.ReadAppend(nil)
	if err != nil {
		t.Fatalf("ReadAppend: %v", err)
	}
	if want := 7*time.Second + 123456789*time.Nanosecond; at != want {
		t.Errorf("at = %v, want %v", at, want)
	}
	if !bytes.Equal(got, wire) {
		t.Errorf("wire bytes differ")
	}
}

// TestPCAPReaderErrors pins the failure modes ingestion relies on: bad
// magic and mid-record truncation are errors, not silent EOFs.
func TestPCAPReaderErrors(t *testing.T) {
	if _, err := NewPCAPReader(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Error("zero magic: want error")
	}

	c := fixtureCapture()
	var buf bytes.Buffer
	if err := c.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate inside the last record's frame bytes.
	blob := buf.Bytes()[:buf.Len()-10]
	r, err := NewPCAPReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var wire []byte
	var last error
	for {
		if wire, _, last = r.ReadAppend(wire[:0]); last != nil {
			break
		}
	}
	if last == io.EOF {
		t.Fatal("truncated capture ended with clean EOF, want ErrUnexpectedEOF")
	}
}

// TestPCAPReaderReusesBuffer pins the allocation contract: after the first
// record grows the buffer, subsequent same-size reads must not allocate a
// new one.
func TestPCAPReaderReusesBuffer(t *testing.T) {
	c := fixtureCapture()
	var buf bytes.Buffer
	if err := c.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewPCAPReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]byte, 0, frame.MaxFrameLen)
	p0 := &wire[:1][0]
	for {
		if wire, _, err = r.ReadAppend(wire[:0]); err != nil {
			break
		}
		if &wire[0] != p0 {
			t.Fatal("reader reallocated a sufficient buffer")
		}
	}
}

// appendPCAPRecord appends one little-endian record header claiming
// capLen captured bytes, then body, which may be shorter (a truncation).
func appendPCAPRecord(b []byte, sec uint32, capLen int, body []byte) []byte {
	var rh [16]byte
	binary.LittleEndian.PutUint32(rh[0:4], sec)
	binary.LittleEndian.PutUint32(rh[4:8], 250) // microseconds
	binary.LittleEndian.PutUint32(rh[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(rh[12:16], uint32(capLen))
	return append(append(b, rh[:]...), body...)
}

// readAllPCAP reads every record of data through the reader that wrap
// builds over it, each into a fresh WireRecord, and returns the records,
// the buffer capacity the failing read left, and the error that ended
// them.
func readAllPCAP(t *testing.T, data []byte, wrap func(io.Reader) io.Reader) ([]WireRecord, int, error) {
	t.Helper()
	r, err := NewPCAPReader(wrap(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("NewPCAPReader: %v", err)
	}
	var recs []WireRecord
	for {
		var rec WireRecord
		if rec.Wire, rec.At, err = r.ReadAppend(nil); err != nil {
			return recs, cap(rec.Wire), err
		}
		recs = append(recs, rec)
	}
}

// TestPCAPReaderChunking pins that the reader's records and errors do not
// depend on how the underlying reader chunks the bytes: whole, one byte at
// a time, half of each request, with EOF on the last data, or behind a
// 64 KiB bufio.Reader as arpanalyze wraps its input. The captures end
// cleanly, inside a record header at every length from 1 to 15 bytes,
// inside a frame, at a captured length past maxPCAPRecord, and in or
// after a record longer than the reader's 64 KiB window.
func TestPCAPReaderChunking(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureCapture().WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	const goodRecs = 4
	long := make([]byte, 200<<10)
	for i := range long {
		long[i] = byte(i * 7)
	}
	withLong := appendPCAPRecord(bytes.Clone(good), 9, len(long), long)
	withLong = appendPCAPRecord(withLong, 10, 60, make([]byte, 60))

	type tc struct {
		name string
		data []byte
		recs int
		err  string // "" for a clean io.EOF
	}
	cases := []tc{
		{"clean", good, goodRecs, ""},
		{"frame cut", good[:len(good)-10], goodRecs - 1, "pcap record 3: unexpected EOF"},
		{"cap past max", appendPCAPRecord(bytes.Clone(good), 9, maxPCAPRecord+1, make([]byte, 100)), goodRecs,
			"pcap record 4: captured length 262145 exceeds 262144"},
		{"long record", withLong, goodRecs + 2, ""},
		{"long record cut", withLong[:len(good)+16+len(long)-1], goodRecs, "pcap record 4: unexpected EOF"},
		{"after long record cut", withLong[:len(withLong)-1], goodRecs + 1, "pcap record 5: unexpected EOF"},
	}
	full := appendPCAPRecord(bytes.Clone(good), 9, 60, make([]byte, 60))
	for k := 1; k < 16; k++ {
		cases = append(cases, tc{fmt.Sprintf("header cut at %d", k), full[:len(good)+k], goodRecs,
			"pcap record 4 header: unexpected EOF"})
	}
	wraps := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data+EOF", iotest.DataErrReader},
		{"bufio 64KiB", func(r io.Reader) io.Reader { return bufio.NewReaderSize(r, 64<<10) }},
	}
	for _, c := range cases {
		want, failCap, wantErr := readAllPCAP(t, c.data, wraps[0].wrap)
		if len(want) != c.recs {
			t.Errorf("%s: %d records, want %d", c.name, len(want), c.recs)
		}
		switch {
		case c.err == "" && wantErr != io.EOF:
			t.Errorf("%s: ended with %v, want io.EOF", c.name, wantErr)
		case c.err != "" && (wantErr == nil || wantErr.Error() != c.err):
			t.Errorf("%s: ended with %v, want %q", c.name, wantErr, c.err)
		}
		if c.name == "cap past max" && failCap != 0 {
			t.Errorf("%s: rejected after allocating %d bytes", c.name, failCap)
		}
		if c.recs > goodRecs && !bytes.Equal(want[goodRecs].Wire, long) {
			t.Errorf("%s: the long record did not round-trip", c.name)
		}
		for _, w := range wraps[1:] {
			got, _, gotErr := readAllPCAP(t, c.data, w.wrap)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) {
				t.Errorf("%s through %s: ended with %v, whole reads end with %v", c.name, w.name, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Errorf("%s through %s: %d records, whole reads give %d", c.name, w.name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i].At != want[i].At || !bytes.Equal(got[i].Wire, want[i].Wire) {
					t.Errorf("%s through %s: record %d differs", c.name, w.name, i)
				}
			}
		}
	}
}

// BenchmarkPCAPReadAppend prices the per-record read: 10,000 minimum-size
// Ethernet records appended into one reused buffer, as the inline replay
// path reads them.
func BenchmarkPCAPReadAppend(b *testing.B) {
	const records = 10000
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint32(hdr[20:24], pcapEthernet)
	blob := hdr[:]
	for i := 0; i < records; i++ {
		blob = appendPCAPRecord(blob, uint32(i), frame.MinFrameLen, make([]byte, frame.MinFrameLen))
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		r, err := NewPCAPReader(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if buf, _, err = r.ReadAppend(buf[:0]); err != nil {
				break
			}
		}
		if err != io.EOF {
			b.Fatal(err)
		}
	}
}
