package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// scannerLines is the line splitter NDJSONReader replaced: a bufio.Scanner
// with ScanLines, a 64 KiB buffer growing to maxNDJSONLine, blank lines
// skipped. It returns the lines and the error that ended them (nil at a
// clean end).
func scannerLines(r io.Reader) ([]string, error) {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64<<10), maxNDJSONLine)
	var lines []string
	for s.Scan() {
		if len(trimSpace(s.Bytes())) != 0 {
			lines = append(lines, s.Text())
		}
	}
	if err := s.Err(); err != nil {
		return lines, fmt.Errorf("ndjson line %d: %w", len(lines), err)
	}
	return lines, nil
}

// readerLines splits the same stream with NDJSONReader.AppendLine,
// appending every line to one buffer as the replay rounds do.
func readerLines(r io.Reader) ([]string, error) {
	nr := NewNDJSONReader(r)
	var lines []string
	var buf []byte
	for {
		off := len(buf)
		var err error
		buf, err = nr.AppendLine(buf)
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			return lines, err
		}
		lines = append(lines, string(buf[off:]))
	}
}

// checkSplit requires NDJSONReader to split data into the lines the
// scanner gives and to end with the same error, through readers that
// deliver the bytes whole, one byte at a time and half of each request.
// The scanner's "token too long" is errLineTooLong in NDJSONReader, at the
// same line index; any other error must read the same.
func checkSplit(t *testing.T, name string, data []byte, tail error) {
	t.Helper()
	source := func(wrap func(io.Reader) io.Reader) io.Reader {
		r := wrap(bytes.NewReader(data))
		if tail != nil {
			r = io.MultiReader(r, iotest.ErrReader(tail))
		}
		return r
	}
	want, wantErr := scannerLines(source(func(r io.Reader) io.Reader { return r }))
	wantMsg := fmt.Sprint(wantErr)
	if errors.Is(wantErr, bufio.ErrTooLong) {
		wantMsg = strings.Replace(wantMsg, bufio.ErrTooLong.Error(), errLineTooLong.Error(), 1)
	}
	for _, w := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
	} {
		got, err := readerLines(source(w.wrap))
		if fmt.Sprint(err) != wantMsg || errors.Is(err, errLineTooLong) != errors.Is(wantErr, bufio.ErrTooLong) {
			t.Errorf("%s through %s: ended with %v, scanner with %v", name, w.name, err, wantErr)
		}
		if len(got) != len(want) {
			t.Errorf("%s through %s: %d lines, scanner %d", name, w.name, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s through %s: line %d is %.40q (%d bytes), scanner %.40q (%d bytes)",
					name, w.name, i, got[i], len(got[i]), want[i], len(want[i]))
			}
		}
	}
}

// TestNDJSONSplitMatchesScanner pins AppendLine's splitting to the
// bufio.Scanner rules it replaced: LF and CRLF endings, blank and
// whitespace-only lines skipped, a final line without LF kept, lines on
// both sides of the maxNDJSONLine bound, with and without a CR and with
// and without a final LF, a line longer than the reader's 64 KiB window,
// and a read error after a partial line.
func TestNDJSONSplitMatchesScanner(t *testing.T) {
	long := func(n int) string { return strings.Repeat("x", n) }
	cases := map[string]string{
		"empty":              "",
		"lf":                 "a\nbb\n",
		"crlf":               "a\r\nbb\r\n",
		"blank lines":        "\n\n \t\n\r\n a \n\r\r\n\t",
		"no final lf":        "a\nbb",
		"final cr":           "a\nbb\r",
		"inner cr":           "a\rb\r\n\rc\n",
		"past the window":    "a\n" + long(100<<10) + "\nb\n",
		"max-1 lf":           long(maxNDJSONLine-1) + "\nb\n",
		"max lf":             "a\n" + long(maxNDJSONLine) + "\nb\n",
		"max+1 lf":           "a\n" + long(maxNDJSONLine+1) + "\nb\n",
		"max-2 crlf":         long(maxNDJSONLine-2) + "\r\nb\n",
		"max-1 crlf":         "a\n" + long(maxNDJSONLine-1) + "\r\nb\n",
		"max-1 final":        "a\n" + long(maxNDJSONLine-1),
		"max final":          "a\n" + long(maxNDJSONLine),
		"max blank":          "a\n" + strings.Repeat(" ", maxNDJSONLine) + "\nb\n",
		"max-1 blank":        "a\n" + strings.Repeat(" ", maxNDJSONLine-1) + "\nb\n",
		"max-1 final blank":  "a\n" + strings.Repeat("\t", maxNDJSONLine-1),
		"window then max":    long(64<<10) + "\n" + long(maxNDJSONLine) + "\n",
		"max-1 final cr":     "a\n" + long(maxNDJSONLine-2) + "\r",
		"max-1 final cr out": "a\n" + long(maxNDJSONLine-1) + "\r",
	}
	for name, data := range cases {
		checkSplit(t, name, []byte(data), nil)
	}
	boom := errors.New("capture truncated")
	for name, data := range map[string]string{
		"error after lines":   "a\nbb\n",
		"error mid line":      "a\nbb",
		"error mid crlf":      "a\nbb\r",
		"error after blank":   "a\n  ",
		"error with no bytes": "",
	} {
		checkSplit(t, name, []byte(data), boom)
	}
}

// FuzzNDJSONSplit checks AppendLine against the bufio.Scanner splitter on
// arbitrary short streams (see checkSplit); the line bound and the 64 KiB
// window are TestNDJSONSplitMatchesScanner's. The seed corpus is the
// table's short cases.
func FuzzNDJSONSplit(f *testing.F) {
	for _, s := range []string{"", "a\nbb\n", "a\r\nbb\r\n", "\n\n \t\n\r\n a \n\r\r\n\t", "a\nbb\r", "a\rb\r\n\rc\n"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSplit(t, "input", data, nil)
	})
}
