package trace

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// TestNDJSONRoundTrip pins that NDJSONReader consumes exactly what
// WriteNDJSON produces: same record count, nanosecond-exact timestamps
// (NDJSON keeps full resolution, unlike pcap), byte-identical frames.
func TestNDJSONRoundTrip(t *testing.T) {
	c := fixtureCapture()
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	r := NewNDJSONReader(bytes.NewReader(buf.Bytes()))
	var line []byte
	var rec WireRecord
	for i, want := range c.Records() {
		var err error
		if line, err = r.AppendLine(line[:0]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if err := ParseNDJSONLine(line, &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.At != want.At {
			t.Errorf("record %d: at %v, want %v", i, rec.At, want.At)
		}
		wire, err := want.Frame.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Wire, wire) {
			t.Errorf("record %d: wire bytes differ", i)
		}
	}
	if _, err := r.AppendLine(nil); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
}

// TestNDJSONSchemaGolden pins the exact bytes of the NDJSON line schema.
// arpanalyze ingestion (and anything downstream consuming the stream)
// depends on these field names and encodings; a diff here means the schema
// changed and every reader must change with it. Regenerate deliberately
// with UPDATE_GOLDEN=1.
func TestNDJSONSchemaGolden(t *testing.T) {
	c := fixtureCapture()
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	golden := filepath.Join("testdata", "capture.ndjson.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("NDJSON stream drifted from pinned schema.\ngot:\n%s\nwant:\n%s\nIf the schema change is intentional, regenerate with UPDATE_GOLDEN=1 and update every consumer.", buf.Bytes(), want)
	}
}

// TestParseNDJSONFastPath pins that the canonical-line byte scan and the
// full JSON decoder agree — on every fixture line, and on non-canonical
// shapes where the scan must bail to the fallback.
func TestParseNDJSONFastPath(t *testing.T) {
	c := fixtureCapture()
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r := NewNDJSONReader(bytes.NewReader(buf.Bytes()))
	for i := 0; ; i++ {
		line, err := r.AppendLine(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		at, wire, ok := scanNDJSONLine(line)
		if !ok {
			t.Fatalf("line %d: canonical writer output rejected by fast scan: %s", i, line)
		}
		var nr NDJSONRecord
		if err := json.Unmarshal(line, &nr); err != nil {
			t.Fatal(err)
		}
		dec := make([]byte, base64.StdEncoding.DecodedLen(len(wire)))
		m, err := base64.StdEncoding.Decode(dec, wire)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		dec = dec[:m]
		if at != nr.At || !bytes.Equal(dec, nr.Wire) {
			t.Errorf("line %d: fast scan (%v, %d bytes) != decoder (%v, %d bytes)",
				i, at, len(dec), nr.At, len(nr.Wire))
		}
	}

	// Reordered fields: the scan bails, the fallback must still parse.
	var rec WireRecord
	reordered := []byte(`{"wire":"` + base64.StdEncoding.EncodeToString(make([]byte, 14)) + `","at":42}`)
	if err := ParseNDJSONLine(reordered, &rec); err != nil {
		t.Fatalf("reordered fields: %v", err)
	}
	if rec.At != 42 || len(rec.Wire) != 14 {
		t.Errorf("reordered fields: got at=%v len=%d", rec.At, len(rec.Wire))
	}
}

// TestParseNDJSONLineErrors pins rejection of corrupt stream lines.
func TestParseNDJSONLineErrors(t *testing.T) {
	var rec WireRecord
	for _, line := range []string{
		`{not json`,
		`{"at":1,"wire":""}`, // no frame bytes
		`{"at":1}`,           // wire absent
	} {
		if err := ParseNDJSONLine([]byte(line), &rec); err == nil {
			t.Errorf("line %q: want error", line)
		}
	}
}

// TestCaptureInstrument pins the telemetry surface: frames/bytes counters
// track the tap, and the ring's Dropped count is visible as
// capture_dropped_total — the counter that makes an undersized capture
// ring observable on /metrics.
func TestCaptureInstrument(t *testing.T) {
	reg := telemetry.New()
	c := NewCapture(2) // tiny ring: the 4-record fixture drops 2
	c.Instrument(reg)
	tap := c.Tap()
	var wireBytes uint64
	for _, r := range fixtureCapture().Records() {
		e := tapEvent(r.Frame, r.Port)
		e.At = r.At
		tap(e)
		wireBytes += uint64(e.WireLen)
	}
	if got := reg.CounterValue("capture_frames_total"); got != 4 {
		t.Errorf("capture_frames_total = %d, want 4", got)
	}
	if got := reg.CounterValue("capture_bytes_total"); got != wireBytes {
		t.Errorf("capture_bytes_total = %d, want %d", got, wireBytes)
	}
	if got := reg.CounterValue("capture_dropped_total"); got != 2 {
		t.Errorf("capture_dropped_total = %d, want 2", got)
	}
	if c.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", c.Dropped())
	}
}
