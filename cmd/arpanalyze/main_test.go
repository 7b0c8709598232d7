package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// replayTestdata points at the capture fixtures the replay engine pins its
// goldens with, so the CLI is tested against the same bytes.
func replayTestdata(t *testing.T, name string) string {
	t.Helper()
	p := filepath.Join("..", "..", "internal", "replay", "testdata", name)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("fixture %s missing (regenerate with UPDATE_GOLDEN=1 in internal/replay): %v", name, err)
	}
	return p
}

// TestRunGoldenReplay drives the CLI end-to-end: the checked-in MITM
// capture through arpwatch must reproduce the engine's alert golden
// byte-for-byte, as sniffed pcap and as NDJSON, at several shard widths.
func TestRunGoldenReplay(t *testing.T) {
	want, err := os.ReadFile(replayTestdata(t, "alerts_arpwatch.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   string
		args []string
	}{
		{name: "pcap-auto", in: "mitm.pcap", args: nil},
		{name: "ndjson-auto", in: "mitm.ndjson", args: nil},
		{name: "pcap-sharded", in: "mitm.pcap", args: []string{"-workers", "4"}},
		{name: "ndjson-sharded", in: "mitm.ndjson", args: []string{"-workers", "8"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "alerts.ndjson")
			args := append([]string{
				"-in", replayTestdata(t, tc.in),
				"-scheme", "arpwatch",
				"-out", out,
			}, tc.args...)
			var summary bytes.Buffer
			if err := run(&summary, args); err != nil {
				t.Fatalf("run: %v", err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("alert stream differs from golden\ngot:\n%s\nwant:\n%s", got, want)
			}
			if !strings.Contains(summary.String(), "through arpwatch") {
				t.Errorf("summary missing scheme label:\n%s", summary.String())
			}
		})
	}
}

// TestRunStack pins that a multi-scheme stack deploys and reports
// correlation in the summary.
func TestRunStack(t *testing.T) {
	out := filepath.Join(t.TempDir(), "alerts.ndjson")
	var summary bytes.Buffer
	err := run(&summary, []string{
		"-in", replayTestdata(t, "mitm.pcap"),
		"-scheme", "arpwatch+snort-like",
		"-out", out,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(summary.String(), "through arpwatch+snort-like") {
		t.Errorf("summary missing stack label:\n%s", summary.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(blob)) == 0 {
		t.Error("stack replay produced no alerts")
	}
}

// TestRunList pins that -list names every registered scheme, one per line.
func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-list"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"arpwatch", "snort-like", "active-probe", "middleware", "hybrid-guard", "dai"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, buf.String())
		}
	}
}

// TestRunParams pins -params plumbing: valid overrides apply to a single
// scheme, unknown knobs are rejected, and stacks refuse the flag.
func TestRunParams(t *testing.T) {
	out := filepath.Join(t.TempDir(), "alerts.ndjson")
	base := []string{"-in", replayTestdata(t, "mitm.pcap"), "-out", out}
	var buf bytes.Buffer
	if err := run(&buf, append(base, "-scheme", "arpwatch", "-params", `{"flipFlopThreshold": 2}`)); err != nil {
		t.Fatalf("valid params: %v", err)
	}
	if err := run(&buf, append(base, "-scheme", "arpwatch", "-params", `{"noSuchKnob": 1}`)); err == nil {
		t.Error("unknown param accepted")
	}
	if err := run(&buf, append(base, "-scheme", "arpwatch+snort-like", "-params", `{}`)); err == nil {
		t.Error("-params accepted for a stack")
	}
}

// TestRunErrors pins the obvious misuse paths.
func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		name string
		args []string
	}{
		{name: "no-scheme", args: []string{"-in", "x.pcap"}},
		{name: "bad-scheme", args: []string{"-scheme", "nope", "-in", "x.pcap"}},
		{name: "missing-input", args: []string{"-scheme", "arpwatch", "-in", "does-not-exist.pcap"}},
		{name: "bad-gateway", args: []string{"-scheme", "arpwatch", "-gateway", "not-an-identity"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(&buf, tc.args); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestRunRejectsNonPositiveDrain: a -drain of zero or below fails with an
// error naming the flag instead of silently draining the 10s default.
func TestRunRejectsNonPositiveDrain(t *testing.T) {
	for _, d := range []string{"0", "-3s"} {
		var buf bytes.Buffer
		err := run(&buf, []string{"-in", replayTestdata(t, "mitm.pcap"), "-scheme", "arpwatch", "-out", os.DevNull, "-drain", d})
		if err == nil || !strings.Contains(err.Error(), "-drain") {
			t.Errorf("-drain %s: err = %v, want an error naming -drain", d, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-drain %s: printed %q before failing", d, buf.String())
		}
	}
}

// TestRunRejectsWorkersBelowOne: a -workers below 1 fails with an error
// naming the flag instead of silently replaying at width 1.
func TestRunRejectsWorkersBelowOne(t *testing.T) {
	for _, n := range []string{"0", "-4"} {
		var buf bytes.Buffer
		err := run(&buf, []string{"-in", replayTestdata(t, "mitm.pcap"), "-scheme", "arpwatch", "-out", os.DevNull, "-workers", n})
		if err == nil || !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-workers %s: err = %v, want an error naming -workers", n, err)
		}
	}
}

// TestRunShortInput: an input shorter than the pcap magic — empty, or a
// lone newline — is read as NDJSON and replays 0 frames.
func TestRunShortInput(t *testing.T) {
	for _, blob := range []string{"", "\n"} {
		in := filepath.Join(t.TempDir(), "capture")
		if err := os.WriteFile(in, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		var summary bytes.Buffer
		if err := run(&summary, []string{"-in", in, "-scheme", "arpwatch", "-out", os.DevNull}); err != nil {
			t.Fatalf("input %q: %v", blob, err)
		}
		if !strings.HasPrefix(summary.String(), "replayed 0 frames ") {
			t.Errorf("input %q: summary %q, want 0 frames replayed", blob, summary.String())
		}
	}
}

// TestParseStation pins the ip=mac flag grammar.
func TestParseStation(t *testing.T) {
	st, err := parseStation("192.168.88.254=02:42:ac:00:00:01")
	if err != nil {
		t.Fatal(err)
	}
	if st.IP.String() != "192.168.88.254" || st.MAC.String() != "02:42:ac:00:00:01" {
		t.Errorf("got %v=%v", st.IP, st.MAC)
	}
	for _, bad := range []string{"", "192.168.88.254", "x=02:42:ac:00:00:01", "192.168.88.254=x"} {
		if _, err := parseStation(bad); err == nil {
			t.Errorf("%q: want error", bad)
		}
	}
}

// TestIsPCAPMagic pins the sniffing table for all four classic variants.
func TestIsPCAPMagic(t *testing.T) {
	for _, tc := range []struct {
		b    []byte
		want bool
	}{
		{[]byte{0xd4, 0xc3, 0xb2, 0xa1}, true}, // LE µs
		{[]byte{0xa1, 0xb2, 0xc3, 0xd4}, true}, // BE µs
		{[]byte{0x4d, 0x3c, 0xb2, 0xa1}, true}, // LE ns
		{[]byte{0xa1, 0xb2, 0x3c, 0x4d}, true}, // BE ns
		{[]byte{'{', '"', 'a', 't'}, false},    // NDJSON line
		{[]byte{0xa1, 0xb2}, false},            // short read
	} {
		if got := isPCAPMagic(tc.b); got != tc.want {
			t.Errorf("isPCAPMagic(% x) = %v, want %v", tc.b, got, tc.want)
		}
	}
}

// TestHTTPParity pins that serving -http leaves a replay alone: the alert
// stream is byte-identical, and so is the summary once its host-timed
// throughput is masked.
func TestHTTPParity(t *testing.T) {
	timing := regexp.MustCompile(` in \S+ \(\d+ frames/s\)`)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"arpwatch", []string{"-scheme", "arpwatch"}},
		{"stack-sharded", []string{"-scheme", "dai+arpwatch+port-security", "-workers", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "alerts.ndjson")
			runOnce := func(extra ...string) (string, string) {
				var summary bytes.Buffer
				args := append([]string{"-in", replayTestdata(t, "mitm.pcap"), "-out", out}, tc.args...)
				if err := run(&summary, append(args, extra...)); err != nil {
					t.Fatal(err)
				}
				alerts, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				return string(alerts), timing.ReplaceAllString(summary.String(), "")
			}
			alerts, summary := runOnce()
			alertsWith, summaryWith := runOnce("-http", "127.0.0.1:0")
			if alertsWith != alerts {
				t.Fatalf("serving ops changed the alert stream:\nwith:\n%s\nwithout:\n%s", alertsWith, alerts)
			}
			if summaryWith != summary {
				t.Fatalf("serving ops changed the summary:\nwith:\n%s\nwithout:\n%s", summaryWith, summary)
			}
		})
	}
}
