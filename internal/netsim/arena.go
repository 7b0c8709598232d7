package netsim

import (
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/sim"
)

// DatagramArena is a scheduler's monotonic IPv4 storage, carved the way
// arppkt.Arena carves ARP frames: never reused while the trial runs, and
// reset wholesale when labnet recycles the scheduler, so the next trial
// rewrites the same slabs. It holds the two things the routed campus path
// would otherwise allocate per packet:
//
//   - IPv4 frames — a station bank's background datagrams and a router
//     interface's egress toward its LAN — each one object with up to
//     datagramWire bytes of wire image behind its Payload;
//   - trunk packets, the messages a router ships to another shard. The
//     sender encodes into one; the receiving interface copies the bytes
//     into a frame from its own arena, so no frame memory is shared between
//     shards, and the packet itself is never rewritten before the trial is
//     recycled.
//
// A scheduler that is never recycled stops carving at arenaMaxSlabs and
// falls back to the heap, degrading to the unpooled behaviour instead of
// growing without bound. The arena lives in the scheduler's
// ScratchDatagrams slot and is single-threaded like everything else on it.
type DatagramArena struct {
	frames  slabs[datagram]
	packets slabs[trunkPacket]
}

// datagramWire is the wire room an arena frame or trunk packet carries
// inline: a bank datagram (IPv4 + UDP + 8 bytes, 36 in all) fits. A longer
// packet is appended past it onto the heap.
const datagramWire = 64

// datagram is one IPv4 frame in a single object: the frame and the wire
// bytes its Payload points into, which live and die together.
type datagram struct {
	f    frame.Frame
	wire [datagramWire]byte
}

// DatagramArenaOf returns the scheduler's datagram arena, installing one on
// first use. Call it at setup time and keep the pointer.
func DatagramArenaOf(s *sim.Scheduler) *DatagramArena {
	if a, ok := s.Scratch(sim.ScratchDatagrams).(*DatagramArena); ok {
		return a
	}
	a := &DatagramArena{}
	s.SetScratch(sim.ScratchDatagrams, a)
	return a
}

// Frame carves an IPv4 frame from src to dst whose Payload is empty with
// datagramWire bytes of room: the caller appends the packet's wire image
// (ipv4pkt's AppendEncode) and sends the frame. The frame must not be
// referenced after Reset.
func (a *DatagramArena) Frame(dst, src ethaddr.MAC) *frame.Frame {
	d := a.frames.next()
	d.f = frame.Frame{Dst: dst, Src: src, Type: frame.TypeIPv4, Payload: d.wire[:0]}
	return &d.f
}

// packet carves a trunk packet holding pkt's wire image, addressed to the
// far interface.
func (a *DatagramArena) packet(to *RouterIface, pkt *ipv4pkt.Packet) *trunkPacket {
	p := a.packets.next()
	p.to, p.dst = to, pkt.Dst
	p.buf = pkt.AppendEncode(p.wire[:0])
	return p
}

// Reset returns every carved frame and packet to the arena. The caller
// owns the proof that none is still referenced; labnet calls it when the
// trial's world is torn down. Packets point at router interfaces, so they
// are cleared, and the parked arena keeps no topology reachable.
func (a *DatagramArena) Reset() {
	a.frames.n = 0
	a.packets.clear()
}

// trunkPacket is one IPv4 packet in flight on a trunk: a sim.Task the far
// shard runs at arrival.
type trunkPacket struct {
	to   *RouterIface
	dst  ethaddr.IPv4
	buf  []byte // the encoded packet: wire, or the heap past its room
	wire [datagramWire]byte
}

// Run implements sim.Task on the receiving shard.
func (p *trunkPacket) Run() { p.to.injectFromTrunk(p.dst, p.buf) }

// slabs carves values of T monotonically from fixed-size slabs: n counts
// the values handed out since the last reset.
type slabs[T any] struct {
	s [][]T
	n int
}

const (
	arenaSlab     = 64  // values per slab
	arenaMaxSlabs = 256 // then heap fallback
)

// next hands out the next value, carving a slab when needed. The value
// keeps whatever its last use wrote; callers overwrite it.
func (a *slabs[T]) next() *T {
	i := a.n / arenaSlab
	if i >= len(a.s) {
		if i >= arenaMaxSlabs {
			return new(T)
		}
		a.s = append(a.s, make([]T, arenaSlab))
	}
	v := &a.s[i][a.n%arenaSlab]
	a.n++
	return v
}

// clear zeroes every value handed out since the last reset, then resets.
func (a *slabs[T]) clear() {
	for i := 0; a.n > 0; i++ {
		k := min(a.n, arenaSlab)
		clear(a.s[i][:k])
		a.n -= k
	}
}
