package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-hosts", "4", "-duration", "5s"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gateway", "host1", "workload:", "switch:", "wire:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "delivered, 0 responded") {
		t.Fatal("workload produced no responses")
	}
}

func TestRunWithDHCP(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-hosts", "4", "-duration", "5s", "-dhcp"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DHCP: 3 leases active") {
		t.Fatalf("dhcp summary missing:\n%s", buf.String())
	}
}

func TestRunWritesPCAP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cap.pcap")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-duration", "2s", "-pcap", path}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 24 || blob[0] != 0xd4 || blob[1] != 0xc3 {
		t.Fatalf("not a little-endian pcap: % x", blob[:4])
	}
}

// TestRunHostBounds: -hosts outside [1, 253] fails naming the flag, where
// it used to panic (-1 with -dhcp) or hand a host the gateway's address
// (254 and up); 253 hosts fit, with .254 the gateway's alone.
func TestRunHostBounds(t *testing.T) {
	for _, n := range []string{"-1", "0", "254", "300"} {
		var buf bytes.Buffer
		if err := run(&buf, []string{"-hosts", n, "-dhcp", "-duration", "1s"}); err == nil || !strings.Contains(err.Error(), "-hosts "+n) {
			t.Errorf("-hosts %s: err = %v, want an error naming -hosts", n, err)
		}
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{"-hosts", "253", "-duration", "1s"}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "192.168.88.254 "); n != 1 {
		t.Fatalf("253 hosts: .254 appears %d times, want once (the gateway)", n)
	}
	if strings.Contains(buf.String(), "192.168.89.") {
		t.Fatal("253 hosts: a host left the /24")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestHTTPParity pins that serving -http leaves a run alone: the summary
// is byte-identical, and the -metrics snapshot differs only in the two
// families the virtual-second publish tick moves.
func TestHTTPParity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		metrics string
	}{
		{"mesh", []string{"-hosts", "6", "-duration", "10s"}, "m.prom"},
		{"dhcp", []string{"-hosts", "4", "-duration", "5s", "-dhcp"}, "m.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.metrics)
			runOnce := func(extra ...string) (string, string) {
				var buf bytes.Buffer
				if err := run(&buf, append(append([]string{"-metrics", path}, tc.args...), extra...)); err != nil {
					t.Fatal(err)
				}
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return buf.String(), string(blob)
			}
			without, metricsWithout := runOnce()
			with, metricsWith := runOnce("-http", "127.0.0.1:0")
			if with != without {
				t.Fatalf("serving ops changed the summary:\nwith:\n%s\nwithout:\n%s", with, without)
			}
			tickOnly(t, "-metrics "+tc.metrics, metricsWithout, metricsWith)
		})
	}
}

// tickFigures matches the values of the two metric families the -http
// publish tick moves (one more scheduler event per virtual second, a queue
// up to one deeper), in Prometheus text and in an indented JSON snapshot.
var tickFigures = regexp.MustCompile(`(sim_events_executed_total|sim_queue_depth_highwater)(",\s*"value":)? \d+`)

// tickOnly fails t unless with differs from without in tickFigures values
// and nowhere else.
func tickOnly(t *testing.T, what, without, with string) {
	t.Helper()
	if with == without {
		t.Fatalf("%s: identical with -http; the publish tick never ran", what)
	}
	masked := func(s string) string { return tickFigures.ReplaceAllString(s, "$1 N") }
	if masked(with) != masked(without) {
		t.Fatalf("%s differs outside the tick's two families:\nwith:\n%s\nwithout:\n%s", what, with, without)
	}
}
