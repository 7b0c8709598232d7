package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// WireRecord is one undecoded capture record: a timestamp and the raw
// Ethernet frame bytes. It is the normalized unit the replay engine
// consumes.
type WireRecord struct {
	At   time.Duration
	Wire []byte
}

// pcap magic numbers in file byte order. The classic format stores the
// magic in the writer's native endianness; a reader that sees the swapped
// value byte-swaps every header field. The 0xa1b23c4d variant stores
// nanosecond (rather than microsecond) timestamp fractions.
const (
	pcapMagicNanos = 0xa1b23c4d
	// maxPCAPRecord bounds a record's captured length; anything larger is
	// a corrupt header, not a frame (Ethernet tops out at 65535 with the
	// classic snaplen).
	maxPCAPRecord = 1 << 18
)

// PCAPReader streams records from a classic libpcap capture — the format
// WritePCAP emits, and what tcpdump -w produces on an Ethernet interface.
// Both endiannesses and both timestamp resolutions (microsecond 0xa1b2c3d4,
// nanosecond 0xa1b23c4d) are accepted.
type PCAPReader struct {
	r     *bufio.Reader
	big   bool // header fields are big-endian
	nanos bool
	n     int // records returned so far, for error positions
	// win is the part of r's buffer past the records returned so far, and
	// used the bytes before it that r has not been told to Discard.
	win  []byte
	used int
}

// NewPCAPReader consumes the 24-octet global header and returns a reader
// positioned at the first record.
func NewPCAPReader(r io.Reader) (*PCAPReader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	p := &PCAPReader{r: br, big: magic != pcapMagic && magic != pcapMagicNanos}
	switch p.u32(hdr[0:4]) {
	case pcapMagic:
	case pcapMagicNanos:
		p.nanos = true
	default:
		return nil, fmt.Errorf("pcap header: bad magic %#x", magic)
	}
	if link := p.u32(hdr[20:24]); link != pcapEthernet {
		return nil, fmt.Errorf("pcap header: link type %d (want Ethernet)", link)
	}
	return p, nil
}

// ReadAppend reads the next record, appending its frame bytes to buf and
// returning the extended slice plus the record timestamp. This is the
// zero-copy seam for batched readers that pack many records into one
// arena buffer. io.EOF marks a clean end;
// a record truncated mid-header or mid-frame is an ErrUnexpectedEOF.
//
// A record is copied once, from the bufio.Reader's window into buf. A
// record that lies wholly in the window peeked last is read from it with
// no call into the bufio.Reader; any other takes one Peek of its header
// and one of its frame, each followed by a Discard, and a frame longer
// than the window is read through it.
func (p *PCAPReader) ReadAppend(buf []byte) ([]byte, time.Duration, error) {
	if len(p.win) >= 16 {
		capLen := int(p.u32(p.win[8:12]))
		if n := 16 + capLen; capLen <= maxPCAPRecord && n <= len(p.win) {
			at := p.stamp(p.win)
			off := len(buf)
			buf = extend(buf, capLen)
			copy(buf[off:], p.win[16:n])
			p.win, p.used, p.n = p.win[n:], p.used+n, p.n+1
			return buf, at, nil
		}
	}
	p.r.Discard(p.used)
	p.win, p.used = nil, 0
	buf, at, err := p.readRecord(buf)
	if err == nil {
		p.win, _ = p.r.Peek(p.r.Buffered())
	}
	return buf, at, err
}

// readRecord reads the next record through the bufio.Reader.
func (p *PCAPReader) readRecord(buf []byte) ([]byte, time.Duration, error) {
	hdr, err := p.r.Peek(16)
	if err != nil {
		if len(hdr) == 0 {
			return buf, 0, io.EOF // clean end before any header byte
		}
		p.r.Discard(len(hdr))
		return buf, 0, fmt.Errorf("pcap record %d header: %w", p.n, noEOF(err))
	}
	at := p.stamp(hdr)
	capLen := int(p.u32(hdr[8:12]))
	p.r.Discard(16)
	if capLen > maxPCAPRecord {
		return buf, 0, fmt.Errorf("pcap record %d: captured length %d exceeds %d", p.n, capLen, maxPCAPRecord)
	}
	off := len(buf)
	buf = extend(buf, capLen)
	if capLen <= p.r.Size() {
		wire, err := p.r.Peek(capLen)
		p.r.Discard(copy(buf[off:], wire))
		if err != nil {
			return buf[:off], 0, fmt.Errorf("pcap record %d: %w", p.n, noEOF(err))
		}
	} else if _, err := io.ReadFull(p.r, buf[off:]); err != nil {
		return buf[:off], 0, fmt.Errorf("pcap record %d: %w", p.n, noEOF(err))
	}
	p.n++
	return buf, at, nil
}

// stamp returns the timestamp of the record header hdr.
func (p *PCAPReader) stamp(hdr []byte) time.Duration {
	at := time.Duration(p.u32(hdr[0:4])) * time.Second
	if p.nanos {
		return at + time.Duration(p.u32(hdr[4:8]))*time.Nanosecond
	}
	return at + time.Duration(p.u32(hdr[4:8]))*time.Microsecond
}

// extend returns buf lengthened by n bytes. When buf lacks the room it
// grows to exactly the new length, so a record buffer is never larger
// than the records read into it.
func extend(buf []byte, n int) []byte {
	off := len(buf)
	if cap(buf)-off < n {
		grown := make([]byte, off, off+n)
		copy(grown, buf)
		buf = grown
	}
	return buf[:off+n]
}

// u32 reads a header field in the capture's byte order.
func (p *PCAPReader) u32(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	if p.big {
		return bits.ReverseBytes32(v)
	}
	return v
}

// noEOF maps a bare EOF inside a record to ErrUnexpectedEOF so callers can
// reserve io.EOF for the clean between-records end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
