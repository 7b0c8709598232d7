// Package replay turns captured traffic back into scheme input: it ingests
// a capture stream (classic pcap, the trace NDJSON log, or anything
// producing trace.WireRecords), normalizes each record into the pooled
// frame/arppkt representation, and injects it into a miniature "replay LAN"
// where any scheme or stack from the registry is deployed exactly as it
// would be in simulation.
//
// The replay LAN is the capture-backed schemes.Env adapter: a dedicated
// scheduler whose virtual clock is driven by capture timestamps (RunUntil
// per record — no wall clock anywhere), a switch, real protocol hosts for
// the gateway and victim identities so verification-based schemes
// (middleware, active-probe, hybrid-guard) get genuine probe answers, a
// promiscuous monitor on a mirror port, and lazily-attached injector NICs
// for every other station seen in the capture. Injector stations never
// answer probes — exactly the behavior of a host that has left the LAN,
// which is what a capture replay is. Their ports are send-only
// (netsim.SendOnly): the switch learns and mirrors what they transmit but
// delivers nothing back, since a station with no stack would only discard
// it.
//
// Alerts flow through the registry's correlating sink and are emitted as
// NDJSON. Ingest is one round pipeline (shard.go) at every worker width;
// the width only adds parsing helpers, never changes injection order, so
// the stream is byte-identical at any width.
package replay

import (
	"io"
	"time"

	"repro/internal/arppkt"
	"repro/internal/denseidx"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Station is one L2/L3 identity the replay LAN hosts as a real protocol
// stack (rather than a mute injector NIC).
type Station struct {
	IP  ethaddr.IPv4
	MAC ethaddr.MAC
}

// WorkbenchStations returns the gateway and victim identities a labnet
// workbench capture with this seed contains: the subnet's .254 and .2 with
// the generator's first two sequential MACs. Captures taken elsewhere
// override these with observed identities.
func WorkbenchStations(seed int64) (gw, victim Station) {
	if seed == 0 {
		seed = 1
	}
	subnet := ethaddr.MustParseSubnet("192.168.88.0/24")
	gen := ethaddr.NewGen(seed)
	gw = Station{IP: subnet.Host(254), MAC: gen.SeqMAC()}
	victim = Station{IP: subnet.Host(2), MAC: gen.SeqMAC()}
	return gw, victim
}

// The synthetic appliance's identity: an address and locally-administered
// MAC chosen to stay clear of labnet's conventions (hosts low, attacker
// .66, monitor .250), so a replayed workbench capture cannot collide with
// the live appliance.
var (
	monitorIP  = ethaddr.MustParseIPv4("192.168.88.251")
	monitorMAC = ethaddr.MustParseMAC("06:ab:ab:ab:ab:01")
)

// Config assembles an Engine.
type Config struct {
	// Stack is the scheme deployment; a single scheme is a 1-member stack.
	Stack registry.Stack
	// Gateway and Victim are the identities hosted as real stacks. Zero
	// values default to WorkbenchStations(1).
	Gateway, Victim Station
	// Workers sets the ingest width: parsing runs on
	// min(max(Workers, 1), GOMAXPROCS) goroutines, the caller's included,
	// while the caller injects. At ≤1 no goroutine is started and the
	// caller reads, parses and injects each round itself. Output is
	// byte-identical at any width.
	Workers int
	// Drain is extra virtual time appended after the last record so
	// verification windows and correlation buckets settle (default 10s).
	Drain time.Duration
	// Alerts receives one NDJSON line per correlated alert; nil discards.
	Alerts io.Writer
	// Telemetry, when non-nil, instruments the sink, switch, hosts, and
	// the engine's own ingest counters.
	Telemetry *telemetry.Registry
}

// Stats summarizes one replay.
type Stats struct {
	Frames    uint64        // records injected
	ARP       uint64        // of which decoded as ARP (arena path)
	Malformed uint64        // records skipped: not decodable as Ethernet
	Bytes     uint64        // wire bytes injected
	Alerts    int           // correlated alerts emitted
	LastAt    time.Duration // timestamp of the final record
	Horizon   time.Duration // virtual time after drain
	Stations  int           // injector NICs attached for unseen sources
}

// Engine is one assembled replay LAN with a deployed scheme stack. Run
// consumes a source; a second Run on the same engine continues the first:
// the virtual clock, the stations and Stats carry over, and a record
// stamped before the last injected one is clamped to it.
type Engine struct {
	cfg   Config
	sched *sim.Scheduler
	sw    *netsim.Switch
	env   registry.Env
	sink  *schemes.Sink
	inst  *registry.StackInstance
	log   *alertLog

	// nics holds the NIC that injects each capture source MAC's frames:
	// the hosted gateway, victim and monitor NICs for their identities,
	// lazily-attached injector NICs for everything else. nicIdx maps a
	// MAC's 48 bits to its position, as the switch CAM keys stations.
	nics   []*netsim.NIC
	nicIdx denseidx.Index

	arenas arenaRing
	ring   frameRing
	scf    frame.Frame   // decode scratch; payload aliases the read buffer
	scp    arppkt.Packet // ARP decode scratch

	lastAt  time.Duration
	pending int // injections since the last scheduler flush
	stats   Stats

	mFrames, mARP, mMalformed, mAlerts *telemetry.Counter
}

// New assembles the replay LAN, deploys the stack, and wires the alert
// stream. The scheduler seed is fixed: replay determinism must not depend
// on configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.Gateway == (Station{}) || cfg.Victim == (Station{}) {
		gw, v := WorkbenchStations(1)
		if cfg.Gateway == (Station{}) {
			cfg.Gateway = gw
		}
		if cfg.Victim == (Station{}) {
			cfg.Victim = v
		}
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 10 * time.Second
	}
	if err := cfg.Stack.Validate(); err != nil {
		return nil, err
	}

	s := sim.NewScheduler(1)
	if cfg.Telemetry != nil {
		s.Instrument(cfg.Telemetry)
	}
	sw := netsim.NewSwitch(s, netsim.WithCAMCapacity(4096))
	e := &Engine{
		cfg:   cfg,
		sched: s,
		sw:    sw,
		sink:  schemes.NewSink(),
		nics:  make([]*netsim.NIC, 0, 64),
	}
	e.nicIdx.Init(64)
	e.arenas.init()
	if cfg.Telemetry != nil {
		sw.Instrument(cfg.Telemetry)
		e.sink.Instrument(cfg.Telemetry)
		e.mFrames = cfg.Telemetry.Counter("replay_frames_total")
		e.mARP = cfg.Telemetry.Counter("replay_arp_frames_total")
		e.mMalformed = cfg.Telemetry.Counter("replay_malformed_total")
		e.mAlerts = cfg.Telemetry.Counter("replay_alerts_total")
	}

	// Host-side options some schemes require (key material, strict
	// policies); applied to the hosted stations only — injector stations
	// have no stack to configure.
	hostOpts, err := registry.StackHostOptions(cfg.Stack)
	if err != nil {
		return nil, err
	}
	// Hosted stations never originate traffic of their own: the capture
	// already contains everything they said. Echo responders stay off so
	// replayed IP probes don't spawn un-captured chatter; ARP replies to
	// scheme verification probes are the one deliberate exception.
	opts := append([]stack.Option{stack.WithEchoResponder(false)}, hostOpts...)

	hosted := func(name string, st Station) (*stack.Host, *netsim.Port) {
		nic := netsim.NewNIC(s, st.MAC)
		port := sw.AddPort()
		port.Attach(nic, netsim.WithLatency(0))
		h := stack.NewHost(s, name, nic, st.IP, opts...)
		if cfg.Telemetry != nil {
			h.Instrument(cfg.Telemetry)
		}
		e.addNIC(nic)
		return h, port
	}
	gwHost, gwPort := hosted("gateway", cfg.Gateway)
	vHost, vPort := hosted("victim", cfg.Victim)

	monNIC := netsim.NewNIC(s, monitorMAC)
	monPort := sw.AddPort()
	monPort.Attach(monNIC, netsim.WithLatency(0))
	mon := stack.NewHost(s, "monitor", monNIC, monitorIP, opts...)
	monNIC.SetPromiscuous(true)
	sw.MirrorAllTo(monPort)
	e.addNIC(monNIC)

	e.env = registry.Env{
		Sched:       s,
		Switch:      sw,
		Hosts:       []*stack.Host{gwHost, vHost},
		Ports:       []*netsim.Port{gwPort, vPort},
		Monitor:     mon,
		MonitorPort: monPort,
		Sink:        e.sink,
		Telemetry:   cfg.Telemetry,
	}
	inst, err := registry.DeployStack(&e.env, cfg.Stack)
	if err != nil {
		return nil, err
	}
	e.inst = inst

	if cfg.Alerts != nil {
		e.log = newAlertLog(cfg.Alerts)
	}
	e.sink.OnAlert(func(a schemes.Alert) {
		e.stats.Alerts++
		e.mAlerts.Inc()
		if e.log != nil {
			e.log.emit(a)
		}
	})
	return e, nil
}

// nicFor returns the injection NIC for a capture source MAC, attaching a
// mute injector port on first sight. Injectors carry no protocol stack:
// they transmit the station's captured frames verbatim on a send-only
// port, so broadcasts skip them and unicast frames addressed to them end
// at the switch — the mirror copy is all the monitor needs.
func (e *Engine) nicFor(src ethaddr.MAC) *netsim.NIC {
	if i := e.nicIdx.Get(src.Uint64()); i >= 0 {
		return e.nics[i]
	}
	nic := netsim.NewNIC(e.sched, src)
	e.sw.AddPort().Attach(nic, netsim.WithLatency(0), netsim.SendOnly())
	e.addNIC(nic)
	e.stats.Stations++
	return nic
}

// addNIC makes nic the injection NIC for its MAC.
func (e *Engine) addNIC(nic *netsim.NIC) {
	e.nicIdx.Set(nic.MAC().Uint64(), len(e.nics))
	e.nics = append(e.nics, nic)
}

// Scheduler exposes the replay clock, e.g. to schedule periodic metric
// publication at virtual-time intervals alongside the replay.
func (e *Engine) Scheduler() *sim.Scheduler { return e.sched }

// Correlation exposes the deployed stack's correlator counters.
func (e *Engine) Correlation() registry.CorrelationStats { return e.inst.Correlation() }

// Sink exposes the correlated alert sink (for tests and reports).
func (e *Engine) Sink() *schemes.Sink { return e.sink }

// Stats returns the replay summary accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// Run replays src to completion: every record is injected in capture order
// at its capture timestamp, then the clock runs Drain past the final record
// so outstanding verification windows and correlation buckets settle.
// Workers sets how many goroutines share record parsing (see ingest);
// injection stays sequential, so output is byte-identical at any width.
func (e *Engine) Run(src Source) (Stats, error) {
	if err := e.ingest(src, e.cfg.Workers); err != nil {
		return e.stats, err
	}
	e.stats.LastAt = e.lastAt
	e.stats.Horizon = e.lastAt + e.cfg.Drain
	if rerr := e.sched.RunUntil(e.stats.Horizon); rerr != nil {
		return e.stats, rerr
	}
	if e.log != nil {
		if ferr := e.log.flush(); ferr != nil {
			return e.stats, ferr
		}
	}
	return e.stats, nil
}

// flushEvery bounds how many injections may sit between scheduler flushes;
// a flush delivers every in-flight frame (links are zero-latency), which is
// what lets the non-ARP frame ring reuse its slots.
const flushEvery = ringFrames / 2

// inject advances the virtual clock to the record's timestamp and
// transmits its frame from the source station's NIC. Records that do not
// decode as Ethernet are counted and skipped; undecodable ARP payloads are
// injected verbatim so inspection schemes can flag them.
func (e *Engine) inject(rec *trace.WireRecord) {
	if err := frame.DecodeInto(&e.scf, rec.Wire); err != nil {
		e.stats.Malformed++
		e.mMalformed.Inc()
		return
	}
	at := rec.At
	if at < e.lastAt {
		at = e.lastAt // clamp non-monotonic capture timestamps
	}
	if at > e.lastAt || e.pending >= flushEvery {
		if err := e.sched.RunUntil(at); err != nil {
			return
		}
		e.pending = 0
	}
	e.lastAt = at

	var f *frame.Frame
	if e.scf.Type == frame.TypeARP && arppkt.DecodeInto(&e.scp, e.scf.Payload) == nil {
		f = e.arenas.newFrame(at, &e.scp, e.scf.Src, e.scf.Dst)
		e.stats.ARP++
		e.mARP.Inc()
	} else {
		f = e.ring.next(&e.scf)
	}
	e.stats.Frames++
	e.stats.Bytes += uint64(len(rec.Wire))
	e.mFrames.Inc()
	e.pending++
	e.nicFor(f.Src).Send(f)
}
