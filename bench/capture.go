package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/labnet"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Shape of the replay capture. It is recorded from the simulator itself, as
// the replay golden capture (internal/replay/testdata/mitm.pcap) is: a
// labnet LAN whose hosts run traffic's request/response flows and the
// workbench's periodic gratuitous announcements, tapped at the switch with
// trace.Capture. Every frame is one the simulator sent; the generator only
// picks the LAN's size, periods and cache lifetime, and cuts short about one
// record in a thousand.
const (
	captureHosts    = 255               // stack hosts; with the attacker, 256 stations
	captureHorizon  = 290 * time.Second // simulated; about 200k frames
	captureFlow     = time.Second       // each host's request period to its ring peer, as lan-128's mesh
	captureCacheTTL = 2 * time.Second   // ARP entry lifetime; expiry re-resolution makes about 26% of frames ARP
	announcePeriod  = 15 * time.Second  // gratuitous ARP per host, as the golden capture's hosts
	truncatedEvery  = 1000              // about one record in this many is cut below an Ethernet header
)

// The spoofing campaign: from campaignStart to campaignEnd the attacker
// poisons the gateway and the victim every campaignPeriod and relays their
// traffic, the workbench's gateway MITM.
const (
	campaignStart  = 30 * time.Second
	campaignEnd    = 70 * time.Second
	campaignPeriod = 2 * time.Second
)

// capture is a seeded replay input: the same records encoded as classic
// pcap and as trace NDJSON, plus the counts replay must report.
type capture struct {
	pcap, ndjson []byte
	frames       uint64 // records that decode as Ethernet
	truncated    uint64 // records replay must count as malformed
	gw, victim   replay.Station
}

// synthCapture simulates the capture's LAN for the seed and records it.
// Hosts are numbered into a /22 so 255 of them fit; the gateway and victim
// keep the replay.WorkbenchStations(seed) identities.
func synthCapture(seed int64) (*capture, error) {
	rng := rand.New(rand.NewSource(seed))
	lan := labnet.New(labnet.Config{
		Seed: seed, Hosts: captureHosts, WithAttacker: true,
		Subnet: ethaddr.MustParseSubnet("192.168.88.0/22"), CacheTTL: captureCacheTTL,
	})
	defer lan.Recycle()
	// Host i sits at .i+1; move the hosts on the attacker's .66, the replay
	// monitor's .251 and the gateway's .254 to addresses nobody else holds.
	taken := map[ethaddr.IPv4]bool{
		lan.Attacker.IP(): true, ethaddr.MustParseIPv4("192.168.88.251"): true, lan.Gateway().IP(): true,
	}
	for i, h := range lan.Hosts[1:] {
		if taken[h.IP()] {
			h.SetIP(lan.Subnet.Host(512 + i))
		}
	}

	rec := trace.NewCapture(1 << 20)
	lan.Switch.AddTap(rec.Tap())
	// Every host starts its flow and its announcements at a seeded offset
	// on a whole microsecond, so pcap and NDJSON timestamps agree.
	offset := func(d time.Duration) time.Duration {
		return time.Duration(rng.Int63n(int64(d/time.Microsecond))) * time.Microsecond
	}
	for i, h := range lan.Hosts {
		h, peer, id := h, lan.Hosts[(i+1)%len(lan.Hosts)], uint32(i+1)
		lan.Sched.At(offset(captureFlow), func() {
			traffic.StartFlow(lan.Sched, id, h, peer, captureFlow, traffic.WithResponse())
		})
		lan.Sched.At(offset(announcePeriod), func() {
			h.SendGratuitous()
			lan.Sched.Every(announcePeriod, h.SendGratuitous)
		})
	}
	gw, victim, atk := lan.Gateway(), lan.Victim(), lan.Attacker
	lan.Sched.At(campaignStart, func() {
		atk.PoisonPeriodically(campaignPeriod, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
		atk.RelayBetween(victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
	})
	lan.Sched.At(campaignEnd, atk.StopPoisoning)
	if err := lan.Run(captureHorizon); err != nil {
		return nil, err
	}

	c := &capture{}
	c.gw, c.victim = replay.WorkbenchStations(seed)
	cw := newCaptureWriter()
	for _, r := range rec.Records() {
		wire, err := r.Frame.AppendEncode(cw.wire[:0])
		if err != nil {
			return nil, err
		}
		cw.wire = wire
		if rng.Intn(truncatedEvery) == 0 {
			r.WireLen, r.Info = 6+rng.Intn(frame.HeaderLen-6), ""
			cw.add(r, wire[:r.WireLen])
			c.truncated++
			continue
		}
		cw.add(r, wire)
		c.frames++
	}
	c.pcap, c.ndjson = cw.pcap.Bytes(), cw.nd.Bytes()
	return c, nil
}

// captureWriter encodes records as classic little-endian microsecond pcap
// and as the NDJSON stream trace.Capture.WriteNDJSON emits; unlike those
// writers it can cut a record short.
type captureWriter struct {
	pcap, nd bytes.Buffer
	enc      *json.Encoder
	wire     []byte
}

func newCaptureWriter() *captureWriter {
	cw := &captureWriter{}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], 1) // Ethernet
	cw.pcap.Write(hdr[:])
	cw.enc = json.NewEncoder(&cw.nd)
	return cw
}

func (cw *captureWriter) add(r trace.Record, wire []byte) {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(r.At/time.Second))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(r.At%time.Second/time.Microsecond))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(wire)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(wire)))
	cw.pcap.Write(hdr[:])
	cw.pcap.Write(wire)
	// Encoding into a bytes.Buffer cannot fail for this fixed record type.
	_ = cw.enc.Encode(&trace.NDJSONRecord{
		At: r.At, Port: r.Port, Src: r.Src, Dst: r.Dst, Type: r.Type, WireLen: r.WireLen, Info: r.Info, Wire: wire,
	})
}
