package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/denseidx"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/schemes/registry"
	"repro/internal/trace"
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
	for _, nic := range eng.nics {
		mac := nic.MAC()
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

// TestInjectorTableCollidingMACs replays a capture whose 100 source MACs
// are denseidx.Colliding keys, so every lookup of the injector table
// probes one crowded cluster and the table grows past its initial 64
// slots mid-replay. Each source must get its own injector NIC, transmit
// exactly its own frames from it, and count once in Stats.Stations.
func TestInjectorTableCollidingMACs(t *testing.T) {
	const (
		sources = 100
		rounds  = 3
	)
	keys := denseidx.Colliding(sources)
	subnet := ethaddr.MustParseSubnet("10.0.9.0/24")
	c := trace.NewCapture(0)
	tap := c.Tap()
	for r := 0; r < rounds; r++ {
		for i, k := range keys {
			var mac ethaddr.MAC
			for b := range mac {
				mac[b] = byte(k >> (40 - 8*b))
			}
			f := &frame.Frame{Dst: ethaddr.BroadcastMAC, Src: mac, Type: frame.TypeARP,
				Payload: arppkt.NewGratuitousRequest(mac, subnet.Host(i+1)).Encode()}
			at := time.Duration(r*sources+i) * time.Millisecond
			tap(netsim.TapEvent{At: at, Frame: f, WireLen: f.WireLen()})
		}
	}
	var blob bytes.Buffer
	if err := c.WritePCAP(&blob); err != nil {
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
	src, err := NewPCAPSource(&blob)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != sources*rounds || stats.Stations != sources {
		t.Fatalf("%d frames from %d stations, want %d from %d", stats.Frames, stats.Stations, sources*rounds, sources)
	}
	if len(eng.nics) != sources+3 || eng.nicIdx.Len() != len(eng.nics) {
		t.Fatalf("%d NICs under %d keys, want %d hosted and injector NICs", len(eng.nics), eng.nicIdx.Len(), sources+3)
	}
	for _, k := range keys {
		i := eng.nicIdx.Get(k)
		if i < 0 {
			t.Fatalf("no injector for key %#x", k)
		}
		nic := eng.nics[i]
		if nic.MAC().Uint64() != k {
			t.Errorf("key %#x maps to the NIC of %v", k, nic.MAC())
		}
		if tx := nic.Stats().TxFrames; tx != rounds {
			t.Errorf("injector %v sent %d frames, want %d", nic.MAC(), tx, rounds)
		}
	}
}
