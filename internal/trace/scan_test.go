package trace

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"strings"
	"testing"
)

// checkNDJSONLine holds ParseNDJSONLine, fast scan included, to
// encoding/json on one line: a line it accepts must decode to the same at
// and wire bytes, a line the decoder rejects must be rejected, and a line
// the decoder reads with wire bytes must be accepted.
func checkNDJSONLine(t *testing.T, line []byte) {
	t.Helper()
	var rec WireRecord
	perr := ParseNDJSONLine(line, &rec)
	var nr NDJSONRecord
	if jerr := json.Unmarshal(line, &nr); jerr != nil {
		if perr == nil {
			t.Fatalf("%q: accepted (at %d, %d wire bytes) a line the decoder rejects: %v", line, rec.At, len(rec.Wire), jerr)
		}
		return
	}
	if perr != nil {
		if len(nr.Wire) > 0 {
			t.Fatalf("%q: rejected a line the decoder reads (at %d, %d wire bytes): %v", line, nr.At, len(nr.Wire), perr)
		}
		return
	}
	if rec.At != nr.At || !bytes.Equal(rec.Wire, nr.Wire) {
		t.Fatalf("%q: read at %d, wire %x; the decoder reads at %d, wire %x", line, rec.At, rec.Wire, nr.At, nr.Wire)
	}
}

// edgeBytes are the bytes the canonical scan must judge as encoding/json
// does wherever they fall: a quote and a backslash (a string's end and an
// escape), control bytes at both ends of their range, the first byte past
// it, DEL, bytes with the top bit set and a two-byte UTF-8 sequence, and
// base64's padding, line breaks and a byte outside its alphabet.
var edgeBytes = []string{`"`, `\`, "\x00", "\x1f", " ", "\x7f", "\x80", "\xff", "é", "=", "\r", "\n", "-"}

// edgeLines places every edge byte at every offset 0–16 of a line's
// string values — src, info, and the base64 wire — and of a key, so the
// word-at-a-time scans meet each one before, on and after an 8-byte word
// boundary, and varies the wire value's length around its 4-byte quanta.
func edgeLines() [][]byte {
	wire := base64.StdEncoding.EncodeToString(make([]byte, 42))
	line := func(src, info, wire, key string) []byte {
		return []byte(`{"at":1000,"port":3,"src":"` + src + `","dst":"ff:ff:ff:ff:ff:ff","type":"ARP","` + key +
			`":60,"info":"` + info + `","wire":"` + wire + `"}`)
	}
	put := func(s string, k int, b string) string {
		if k >= len(s) {
			return s + b
		}
		return s[:k] + b + s[k+1:]
	}
	base := strings.Repeat("a", 20)
	var out [][]byte
	for k := 0; k <= 16; k++ {
		for _, b := range edgeBytes {
			out = append(out,
				line(put(base, k, b), base, wire, "wireLen"),
				line("s", put(base, k, b), wire, "wireLen"),
				line("s", base, put(wire, k, b), "wireLen"),
				line("s", base, wire, put("wireLen", k, b)),
			)
		}
	}
	for n := 0; n <= 16; n++ {
		w := base64.StdEncoding.EncodeToString(make([]byte, 14+n))
		out = append(out, line("s", base, w, "wireLen"), line("s", base, w[:len(w)-n%4], "wireLen"))
	}
	return out
}

// TestNDJSONScanEdges runs the edge table through checkNDJSONLine.
func TestNDJSONScanEdges(t *testing.T) {
	lines := edgeLines()
	fast := 0
	for _, line := range lines {
		checkNDJSONLine(t, line)
		if _, _, ok := scanNDJSONLine(line); ok {
			fast++
		}
	}
	if fast == 0 || fast == len(lines) {
		t.Fatalf("fast scan took %d of %d edge lines; the table must exercise both paths", fast, len(lines))
	}
}

// TestStringStop holds the word-at-a-time string scan to a byte loop for
// every edge byte at every position of runs up to three words long, from
// every start offset within a word.
func TestStringStop(t *testing.T) {
	want := func(b []byte, i int) int {
		for ; i < len(b); i++ {
			if c := b[i]; c == '"' || c == '\\' || c < 0x20 {
				return i
			}
		}
		return len(b)
	}
	for n := 0; n <= 24; n++ {
		for k := 0; k < n; k++ {
			for _, e := range edgeBytes {
				b := []byte(strings.Repeat("a", n))
				b = append(b[:k], append([]byte(e), b[k:]...)...)
				for i := 0; i <= 8 && i <= len(b); i++ {
					if got, w := stringStop(b, i), want(b, i); got != w {
						t.Fatalf("stringStop(%q, %d) = %d, want %d", b, i, got, w)
					}
				}
			}
		}
	}
}

// TestDecodeWire holds the quantum-table base64 decode to
// base64.StdEncoding wherever it reports ok, and requires ok on every
// padded standard encoding.
func TestDecodeWire(t *testing.T) {
	for n := 0; n <= 20; n++ {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(37*i + n)
		}
		enc := base64.StdEncoding.EncodeToString(raw)
		cases := []string{enc}
		for k := 0; k < len(enc); k++ {
			for _, e := range edgeBytes {
				cases = append(cases, enc[:k]+e+enc[k+1:])
			}
		}
		for _, c := range cases {
			src := []byte(c)
			dst := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
			m, ok := decodeWire(dst, src)
			want := make([]byte, len(dst))
			wm, werr := base64.StdEncoding.Decode(want, src)
			if c == enc && n > 0 && !ok {
				t.Fatalf("decodeWire(%q) refused a padded standard encoding", c)
			}
			if ok && (werr != nil || !bytes.Equal(dst[:m], want[:wm])) {
				t.Fatalf("decodeWire(%q) = %x; base64 gives %x, %v", c, dst[:m], want[:wm], werr)
			}
		}
	}
}
