package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVariantsAgainstNaive(t *testing.T) {
	for _, variant := range []string{"gratuitous", "unsolicited-reply", "request-spoof", "reply-race", "blackhole"} {
		t.Run(variant, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, []string{"-variant", variant, "-policy", "naive"}); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "POISONED") {
				t.Fatalf("%s vs naive should poison:\n%s", variant, buf.String())
			}
		})
	}
}

func TestMITMReportsInterception(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-variant", "mitm"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "POISONED") || !strings.Contains(out, "sniffed") {
		t.Fatalf("mitm narration incomplete:\n%s", out)
	}
}

func TestHardenedPolicyBlocksPush(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-variant", "unsolicited-reply", "-policy", "solicited-only"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "POISONED") {
		t.Fatalf("solicited-only should block the push:\n%s", buf.String())
	}
}

func TestTraceFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-variant", "gratuitous", "-trace"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "captured ARP trace") {
		t.Fatal("trace missing")
	}
}

func TestPortStealInterceptsWithoutForgery(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-variant", "port-steal"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "POISONED") {
		t.Fatalf("port stealing must not forge ARP:\n%s", out)
	}
	if strings.Contains(out, ", 0 payload bytes sniffed") {
		t.Fatalf("port stealing should have intercepted traffic:\n%s", out)
	}
}

func TestScanFloodsRequests(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-variant", "scan"}); err != nil {
		t.Fatal(err)
	}
	// The wire also carries the stations' background resolutions, so the
	// scan's own requests are read from the attacker's forged count.
	if !strings.Contains(buf.String(), "attacker: 254 forged packets,") {
		t.Fatalf("scan should emit 254 requests:\n%s", buf.String())
	}
}

func TestUnknownVariant(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-variant", "nonsense"}); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// TestUnknownPolicy pins that a misspelt -policy is an error naming the
// valid profiles, not a silent run on the naive baseline.
func TestUnknownPolicy(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{"-policy", "bogus"})
	if err == nil {
		t.Fatalf("unknown policy accepted:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "solicited-only") {
		t.Fatalf("error does not list the valid policies: %v", err)
	}
}
