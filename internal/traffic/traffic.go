// Package traffic generates the benign workloads the evaluation runs
// underneath attacks: request/response flows between host pairs, Poisson
// arrivals, and the client–gateway hot-spot pattern that makes gateway
// poisoning so valuable to an attacker.
//
// Generators also verify delivery: each payload carries a sequence token the
// receiver checks, so experiments can measure how much traffic an attack
// diverted, blackholed, or left intact.
package traffic

import (
	"encoding/binary"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/sim"
	"repro/internal/stack"
)

// FlowStats counts one flow's outcomes.
type FlowStats struct {
	Sent      uint64
	Delivered uint64 // receiver got the payload
	Responded uint64 // sender got the response (request/response flows)
}

// Flow is a periodic unidirectional or request/response UDP stream between
// two hosts.
type Flow struct {
	ID      uint32
	From    *stack.Host
	To      *stack.Host
	Port    uint16
	stats   FlowStats
	timer   sim.Timer
	stopped bool
	payload int
}

// Stats returns a copy of the flow counters.
func (f *Flow) Stats() FlowStats { return f.stats }

// Stop halts the generator (safe to call from within simulation callbacks).
func (f *Flow) Stop() {
	f.stopped = true
	f.timer.Stop()
}

// Option configures a generator.
type Option func(*config)

type config struct {
	payloadLen int
	respond    bool
	jitter     bool
}

// WithPayloadLen sets the application payload size (default 64 octets).
func WithPayloadLen(n int) Option {
	return func(c *config) { c.payloadLen = n }
}

// WithResponse makes the receiver answer each datagram, so the flow
// exercises both directions (a poisoned one-way path shows up as missing
// responses).
func WithResponse() Option {
	return func(c *config) { c.respond = true }
}

// WithJitter randomizes inter-send gaps uniformly in [period/2, 3·period/2).
func WithJitter() Option {
	return func(c *config) { c.jitter = true }
}

// StartFlow begins a periodic flow from→to. Each datagram carries the flow
// id and a sequence number; delivery and responses are counted.
func StartFlow(s *sim.Scheduler, id uint32, from, to *stack.Host, period time.Duration, opts ...Option) *Flow {
	cfg := config{payloadLen: 64}
	for _, opt := range opts {
		opt(&cfg)
	}
	port := uint16(20000 + id%10000)
	f := &Flow{ID: id, From: from, To: to, Port: port, payload: cfg.payloadLen}

	// Receiver: count and optionally respond.
	to.HandleUDP(port, func(src ethaddr.IPv4, srcPort uint16, payload []byte) {
		if len(payload) < 8 || binary.BigEndian.Uint32(payload[:4]) != id {
			return
		}
		f.stats.Delivered++
		if cfg.respond {
			to.SendUDP(src, port, srcPort, payload[:8])
		}
	})
	// Response path back at the sender.
	respPort := port + 1
	from.HandleUDP(respPort, func(src ethaddr.IPv4, srcPort uint16, payload []byte) {
		if len(payload) >= 4 && binary.BigEndian.Uint32(payload[:4]) == id {
			f.stats.Responded++
		}
	})

	// One buffer serves every datagram of the flow: SendUDP copies it.
	var seq uint32
	payload := make([]byte, cfg.payloadLen)
	send := func() {
		seq++
		binary.BigEndian.PutUint32(payload[:4], id)
		binary.BigEndian.PutUint32(payload[4:8], seq)
		f.stats.Sent++
		from.SendUDP(to.IP(), respPort, port, payload)
	}

	if cfg.jitter {
		var tick func()
		tick = func() {
			if f.stopped {
				return
			}
			send()
			gap := period/2 + time.Duration(s.Rand().Int63n(int64(period)))
			f.timer = s.After(gap, tick)
		}
		f.timer = s.After(period, tick)
	} else {
		f.timer = s.Every(period, func() {
			if !f.stopped {
				send()
			}
		})
	}
	return f
}

// PoissonSource emits events with exponentially distributed gaps at the
// given mean rate (events per second) and calls fire for each. It is the
// arrival process for churn and background noise.
type PoissonSource struct {
	timer   sim.Timer
	stopped bool
}

// StartPoisson begins the source. rate must be positive.
func StartPoisson(s *sim.Scheduler, rate float64, fire func()) *PoissonSource {
	src := &PoissonSource{}
	var tick func()
	gap := func() time.Duration {
		return time.Duration(s.Rand().ExpFloat64() / rate * float64(time.Second))
	}
	tick = func() {
		if src.stopped {
			return
		}
		fire()
		if !src.stopped {
			src.timer = s.After(gap(), tick)
		}
	}
	src.timer = s.After(gap(), tick)
	return src
}

// Stop halts the source (safe to call from within fire).
func (p *PoissonSource) Stop() {
	p.stopped = true
	p.timer.Stop()
}

// Mesh starts pairwise flows among hosts: each host sends to the next, ring
// fashion, which touches every cache. Returns the flows for inspection.
func Mesh(s *sim.Scheduler, hosts []*stack.Host, period time.Duration, opts ...Option) []*Flow {
	flows := make([]*Flow, 0, len(hosts))
	for i, h := range hosts {
		peer := hosts[(i+1)%len(hosts)]
		if peer == h {
			continue
		}
		flows = append(flows, StartFlow(s, uint32(i+1), h, peer, period, opts...))
	}
	return flows
}

// HotSpot starts flows from every client to one server (the gateway
// pattern). Flow ids start at firstID.
func HotSpot(s *sim.Scheduler, clients []*stack.Host, server *stack.Host, firstID uint32, period time.Duration, opts ...Option) []*Flow {
	flows := make([]*Flow, 0, len(clients))
	for i, h := range clients {
		flows = append(flows, StartFlow(s, firstID+uint32(i), h, server, period, opts...))
	}
	return flows
}

// TotalStats sums the counters of a set of flows.
func TotalStats(flows []*Flow) FlowStats {
	var t FlowStats
	for _, f := range flows {
		st := f.Stats()
		t.Sent += st.Sent
		t.Delivered += st.Delivered
		t.Responded += st.Responded
	}
	return t
}
