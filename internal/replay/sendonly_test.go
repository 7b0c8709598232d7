package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schemes/registry"
)

// deliveredEventsPerFrame is the scheduler's events per injected frame for
// the checked-in MITM capture under arpwatch when injector ports still
// received: 774 events over 260 frames. Broadcast fan-out is one batched
// event either way, so the whole difference is unicast frames addressed to
// injectors, each a transit to a NIC that dropped it; with send-only ports
// the replay runs 688 events (2.646 per frame).
const deliveredEventsPerFrame = 774.0 / 260

// TestInjectorsReceiveNothing replays the checked-in MITM capture and pins
// that the injector NICs, attached send-only, are delivered no frame, and
// that the scheduler runs fewer events per injected frame than when every
// broadcast and every unicast to an injector reached a NIC that dropped it.
func TestInjectorsReceiveNothing(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "mitm.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := registry.ParseStack(registry.NameArpwatch)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Stack: st})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPCAPSource(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	injectors := 0
	for mac, nic := range eng.nics {
		if mac == eng.cfg.Gateway.MAC || mac == eng.cfg.Victim.MAC || mac == eng.cfg.Monitor.MAC {
			continue
		}
		injectors++
		if rx := nic.Stats().RxFrames; rx != 0 {
			t.Errorf("injector %v received %d frames, want 0", mac, rx)
		}
	}
	if injectors != stats.Stations || injectors == 0 {
		t.Fatalf("%d injector NICs, stats report %d stations", injectors, stats.Stations)
	}
	perFrame := float64(eng.sched.Executed()) / float64(stats.Frames)
	if perFrame >= deliveredEventsPerFrame {
		t.Fatalf("%d events for %d frames: %.3f per frame, want fewer than the %.3f of receiving injectors",
			eng.sched.Executed(), stats.Frames, perFrame, deliveredEventsPerFrame)
	}
}
