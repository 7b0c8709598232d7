// Package dai implements switch-resident Dynamic ARP Inspection, the
// infrastructure prevention scheme the paper analyzes: every ARP packet
// entering an untrusted port is validated against an authoritative binding
// table built by DHCP snooping (plus static entries for fixed hosts), and
// packets asserting bindings the table contradicts are dropped in the
// forwarding plane before any victim can see them.
//
// DAI stops every poisoning variant on managed infrastructure, at the cost
// of requiring capable switches, DHCP-sourced truth, and correct trusted-
// port configuration — the deployment axis of the analysis.
package dai

import (
	"repro/internal/arppkt"
	"repro/internal/dhcp"
	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/ipv4pkt"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// BindingTable is the authoritative IP↔MAC truth DAI enforces, fed by DHCP
// snooping and static configuration.
type BindingTable struct {
	byIP map[ethaddr.IPv4]ethaddr.MAC
}

// NewBindingTable returns an empty table.
func NewBindingTable() *BindingTable {
	return &BindingTable{byIP: make(map[ethaddr.IPv4]ethaddr.MAC)}
}

// AddStatic installs a fixed binding (servers, gateways).
func (t *BindingTable) AddStatic(ip ethaddr.IPv4, mac ethaddr.MAC) { t.byIP[ip] = mac }

// Remove deletes a binding.
func (t *BindingTable) Remove(ip ethaddr.IPv4) { delete(t.byIP, ip) }

// Lookup returns the authoritative MAC for ip.
func (t *BindingTable) Lookup(ip ethaddr.IPv4) (ethaddr.MAC, bool) {
	mac, ok := t.byIP[ip]
	return mac, ok
}

// Len returns the number of bindings.
func (t *BindingTable) Len() int { return len(t.byIP) }

// SnoopServer subscribes the table to a DHCP server's lease stream — the
// snooping side of the scheme. Call before clients start acquiring.
func (t *BindingTable) SnoopServer(opts *[]dhcp.ServerOption) {
	*opts = append(*opts,
		dhcp.WithOnLease(func(l dhcp.Lease) { t.byIP[l.IP] = l.MAC }),
		dhcp.WithOnRelease(func(l dhcp.Lease) { delete(t.byIP, l.IP) }),
	)
}

// Stats counts inspection outcomes.
type Stats struct {
	Inspected        uint64
	Dropped          uint64
	Trusted          uint64 // packets passed on trusted ports without inspection
	RogueDHCPDropped uint64 // server messages dropped by the DHCP guard
}

// Option configures the Inspector.
type Option func(*Inspector)

// WithTrustedPorts marks ports whose traffic bypasses inspection (uplinks,
// the DHCP server). Misconfigured trust is the classic DAI bypass, which
// the ablation experiment exercises.
func WithTrustedPorts(ids ...int) Option {
	return func(i *Inspector) {
		for _, id := range ids {
			i.trusted[id] = true
		}
	}
}

// WithDHCPGuard additionally drops DHCP *server* messages arriving on
// untrusted ports — the other half of DHCP snooping. Without it a rogue
// server can hand out poisoned router options and hijack gateways one
// layer above ARP, and can pollute the very binding table DAI enforces.
func WithDHCPGuard() Option {
	return func(i *Inspector) { i.dhcpGuard = true }
}

// Inspector is the DAI filter. Install its Filter on the switch.
type Inspector struct {
	sched     *sim.Scheduler
	sink      *schemes.Sink
	table     *BindingTable
	trusted   map[int]bool
	dhcpGuard bool
	stats     Stats
}

// New creates an inspector enforcing table.
func New(s *sim.Scheduler, sink *schemes.Sink, table *BindingTable, opts ...Option) *Inspector {
	i := &Inspector{sched: s, sink: sink, table: table, trusted: make(map[int]bool)}
	for _, opt := range opts {
		opt(i)
	}
	return i
}

// Name identifies the scheme in alerts.
func (i *Inspector) Name() string { return "dai" }

// Stats returns a copy of the counters.
func (i *Inspector) Stats() Stats { return i.stats }

// Filter returns the inline switch filter.
func (i *Inspector) Filter() netsim.FilterFunc {
	return func(port int, f *frame.Frame) netsim.FilterVerdict {
		if f.Type != frame.TypeARP {
			if i.dhcpGuard && !i.trusted[port] && isDHCPServerTraffic(f) {
				i.stats.RogueDHCPDropped++
				i.sink.Report(schemes.Alert{
					At: i.sched.Now(), Scheme: i.Name(), Kind: schemes.AlertRogueDHCP,
					NewMAC: f.Src,
					Detail: "dhcp server message on untrusted port",
				})
				return netsim.VerdictDrop
			}
			return netsim.VerdictAllow
		}
		if i.trusted[port] {
			i.stats.Trusted++
			return netsim.VerdictAllow
		}
		i.stats.Inspected++
		p, err := arppkt.DecodeFrame(f)
		if err != nil {
			return i.drop(port, nil, f, "undecodable arp")
		}
		if err := p.Validate(); err != nil {
			return i.drop(port, p, f, "invalid arp: "+err.Error())
		}
		// The Ethernet source must match the ARP sender hardware address;
		// forged packets that disagree are trivially spoofed.
		if f.Src != p.SenderMAC {
			return i.dropKind(port, p, schemes.AlertSpoofedSource,
				"ethernet source "+f.Src.String()+" != arp sender "+p.SenderMAC.String())
		}
		// Probes assert nothing and pass.
		if p.IsProbe() {
			return netsim.VerdictAllow
		}
		want, known := i.table.Lookup(p.SenderIP)
		if !known {
			return i.dropKind(port, p, schemes.AlertBindingViolation,
				"no snooped binding for "+p.SenderIP.String())
		}
		if want != p.SenderMAC {
			return i.dropKind(port, p, schemes.AlertBindingViolation,
				"table binds "+p.SenderIP.String()+" to "+want.String())
		}
		return netsim.VerdictAllow
	}
}

// drop records an invalid-packet drop.
func (i *Inspector) drop(port int, p *arppkt.Packet, f *frame.Frame, detail string) netsim.FilterVerdict {
	kind := schemes.AlertInvalid
	if p == nil {
		p = &arppkt.Packet{}
	}
	return i.dropAlert(port, p, kind, detail)
}

// dropKind records a drop with an explicit alert kind.
func (i *Inspector) dropKind(port int, p *arppkt.Packet, kind schemes.AlertKind, detail string) netsim.FilterVerdict {
	return i.dropAlert(port, p, kind, detail)
}

// isDHCPServerTraffic reports whether the frame carries a UDP datagram
// sourced from the DHCP server port.
func isDHCPServerTraffic(f *frame.Frame) bool {
	if f.Type != frame.TypeIPv4 {
		return false
	}
	var pkt ipv4pkt.Packet
	if ipv4pkt.DecodeInto(&pkt, f.Payload) != nil || pkt.Proto != ipv4pkt.ProtoUDP {
		return false
	}
	var udp ipv4pkt.UDP
	return ipv4pkt.DecodeUDPInto(&udp, pkt.Payload) == nil && udp.SrcPort == dhcp.ServerPort
}

// dropAlert emits the alert and returns the drop verdict.
func (i *Inspector) dropAlert(port int, p *arppkt.Packet, kind schemes.AlertKind, detail string) netsim.FilterVerdict {
	i.stats.Dropped++
	i.sink.Report(schemes.Alert{
		At: i.sched.Now(), Scheme: i.Name(), Kind: kind,
		IP: p.SenderIP, NewMAC: p.SenderMAC,
		Detail: detail,
	})
	return netsim.VerdictDrop
}
