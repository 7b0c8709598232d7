package schemes

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ethaddr"
)

func TestSinkCollectsAndCopies(t *testing.T) {
	s := NewSink()
	var seen []Alert
	s.OnAlert(func(a Alert) { seen = append(seen, a) })

	ip := ethaddr.MustParseIPv4("10.0.0.1")
	s.Report(Alert{At: time.Second, Scheme: "x", Kind: AlertFlipFlop, IP: ip})
	s.Report(Alert{At: 2 * time.Second, Scheme: "x", Kind: AlertConflict, IP: ip})

	if s.Len() != 2 || len(seen) != 2 {
		t.Fatalf("Len = %d, callbacks = %d", s.Len(), len(seen))
	}
	got := s.Alerts()
	got[0].Scheme = "mutated"
	if s.Alerts()[0].Scheme != "x" {
		t.Fatal("Alerts aliases internal slice")
	}
}

func TestSinkByKind(t *testing.T) {
	s := NewSink()
	ipA := ethaddr.MustParseIPv4("10.0.0.1")
	ipB := ethaddr.MustParseIPv4("10.0.0.2")
	s.Report(Alert{At: time.Second, Kind: AlertNewStation, IP: ipB})
	s.Report(Alert{At: 2 * time.Second, Kind: AlertFlipFlop, IP: ipA})
	s.Report(Alert{At: 3 * time.Second, Kind: AlertFlipFlop, IP: ipA})

	if got := s.ByKind(AlertFlipFlop); len(got) != 2 || got[0].At != 2*time.Second {
		t.Fatalf("ByKind = %+v, want both flip-flops in report order", got)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestAlertKindStrings(t *testing.T) {
	kinds := []AlertKind{
		AlertFlipFlop, AlertNewStation, AlertUnsolicitedReply, AlertVerifyFailed,
		AlertConflict, AlertInvalid, AlertSpoofedSource, AlertBindingViolation,
		AlertPortSecurity, AlertAuthFailed, AlertFlood,
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		name := k.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, name)
		}
		seen[name] = true
	}
	if AlertKind(0).String() != "unknown" {
		t.Fatal("zero kind should be unknown")
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{
		At: time.Second, Scheme: "arpwatch", Kind: AlertFlipFlop,
		IP:     ethaddr.MustParseIPv4("10.0.0.1"),
		OldMAC: ethaddr.MustParseMAC("02:42:ac:00:00:01"),
		NewMAC: ethaddr.MustParseMAC("02:42:ac:00:00:66"),
		Detail: "binding changed",
	}
	s := a.String()
	for _, want := range []string{"arpwatch", "flip-flop", "10.0.0.1", "02:42:ac:00:00:66", "binding changed"} {
		if !strings.Contains(s, want) {
			t.Fatalf("alert string %q missing %q", s, want)
		}
	}
}
