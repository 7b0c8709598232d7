package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
)

// wireOp is one randomized frame injection.
type wireOp struct {
	port    uint8
	srcIdx  uint8
	dstIdx  uint8 // 255 = broadcast
	advance uint16
}

// Generate implements quick.Generator.
func (wireOp) Generate(r *rand.Rand, _ int) reflect.Value {
	dst := uint8(r.Intn(32))
	if r.Intn(4) == 0 {
		dst = 255
	}
	return reflect.ValueOf(wireOp{
		port:    uint8(r.Intn(4)),
		srcIdx:  uint8(r.Intn(32)),
		dstIdx:  dst,
		advance: uint16(r.Intn(2000)),
	})
}

var _ quick.Generator = wireOp{}

func opMAC(i uint8) ethaddr.MAC {
	if i == 255 {
		return ethaddr.BroadcastMAC
	}
	return ethaddr.MAC{0x02, 0x42, 0xac, 0, 1, i}
}

// TestPropertyCAMNeverExceedsCapacity: no frame stream may grow the CAM
// past its configured bound, with or without random eviction.
func TestPropertyCAMNeverExceedsCapacity(t *testing.T) {
	run := func(ops []wireOp, evict bool) bool {
		s := sim.NewScheduler(1)
		swOpts := []SwitchOption{WithCAMCapacity(8)}
		if evict {
			swOpts = append(swOpts, WithCAMEvictRandom())
		}
		sw := NewSwitch(s, swOpts...)
		sw.camTTL = time.Second
		nics := make([]*NIC, 4)
		gen := ethaddr.NewGen(1)
		for i := range nics {
			nics[i] = NewNIC(s, gen.SeqMAC())
			sw.AddPort().Attach(nics[i])
		}
		for _, op := range ops {
			nics[int(op.port)%len(nics)].Send(&frame.Frame{
				Dst:  opMAC(op.dstIdx),
				Src:  opMAC(op.srcIdx % 32),
				Type: frame.TypeIPv4,
			})
			var done bool
			s.After(time.Duration(op.advance)*time.Millisecond, func() { done = true })
			_ = s.Run()
			_ = done
			if sw.CAMLen() > 8 {
				return false
			}
		}
		return true
	}
	f := func(ops []wireOp, evict bool) bool { return run(ops, evict) }
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeliveryRespectsAddressing: no NIC without promiscuous mode
// ever accepts a unicast frame addressed to another station, under any
// traffic pattern.
func TestPropertyDeliveryRespectsAddressing(t *testing.T) {
	f := func(ops []wireOp) bool {
		s := sim.NewScheduler(1)
		sw := NewSwitch(s)
		const n = 4
		nics := make([]*NIC, n)
		wrong := false
		for i := range nics {
			mac := ethaddr.MAC{0x02, 0x42, 0xac, 0, 2, byte(i)}
			nic := NewNIC(s, mac)
			nic.SetHandler(func(f *frame.Frame) {
				if f.Dst != mac && !f.Dst.IsMulticast() {
					wrong = true
				}
			})
			sw.AddPort().Attach(nic)
			nics[i] = nic
		}
		for _, op := range ops {
			nics[int(op.port)%n].Send(&frame.Frame{
				Dst:  opMAC(op.dstIdx),
				Src:  nics[int(op.port)%n].MAC(),
				Type: frame.TypeIPv4,
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return !wrong
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyVLANIsolationHolds: no frame injected in one VLAN is ever
// delivered to a station in another, regardless of CAM state or flooding.
func TestPropertyVLANIsolationHolds(t *testing.T) {
	f := func(ops []wireOp) bool {
		s := sim.NewScheduler(1)
		sw := NewSwitch(s, WithCAMCapacity(4)) // tiny CAM: force fail-open floods
		const n = 4
		leaked := false
		nics := make([]*NIC, n)
		for i := range nics {
			nic := NewNIC(s, ethaddr.MAC{0x02, 0x42, 0xac, 0, 3, byte(i)})
			nic.SetPromiscuous(true) // accept anything that arrives
			if i >= 2 {
				nic.SetHandler(func(*frame.Frame) { leaked = true })
			}
			p := sw.AddPort()
			if i >= 2 {
				p.SetVLAN(2)
			}
			p.Attach(nic)
			nics[i] = nic
		}
		// Inject only from VLAN-1 ports (0 and 1).
		for _, op := range ops {
			nics[int(op.port)%2].Send(&frame.Frame{
				Dst:  opMAC(op.dstIdx),
				Src:  opMAC(op.srcIdx % 32),
				Type: frame.TypeIPv4,
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return !leaked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
