// The topology-neutral deployment plane. Schemes, stacks, and fault plans
// used to care which world they ran in: registry deployment took a flat
// LAN's Env, faults.Apply took a flat LAN's FaultEnv, and the campus had
// its own duplicated arming paths. Site and Topology collapse the two
// worlds into one surface — a flat LAN is simply the one-site topology
// "lan 0", a campus is N sites plus a trunk mesh — so the scenario engine
// and the eval experiments deploy onto either through identical code.
package labnet

import (
	"time"

	"repro/internal/ethaddr"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	"repro/internal/telemetry"
)

// Site is one deployable segment of a topology: the LAN itself, its alert
// sink, the segment's edge router when routed (nil on flat LANs), and the
// telemetry registry (nil on uninstrumented shards — registries are not
// goroutine-safe, so only site 0 carries one). A Site renders the views
// registry.Deploy/DeployStack and faults.Apply consume.
type Site struct {
	Index     int
	LAN       *LAN
	Router    *netsim.RouterIface
	Sink      *schemes.Sink
	Telemetry *telemetry.Registry

	// Attacker identity for segments that don't host the station: campus
	// deployments whitelist the genuine binding fabric-wide so inline
	// schemes don't flag its legitimate cross-backbone traffic.
	attackerMAC    ethaddr.MAC
	attackerIP     ethaddr.IPv4
	remoteAttacker bool
}

// Env renders the segment as a scheme-deployment environment.
func (s *Site) Env() *registry.Env {
	env := s.LAN.Env(s.Sink, s.Telemetry)
	if s.remoteAttacker && s.LAN.Attacker == nil {
		env.AttackerMAC = s.attackerMAC
		env.AttackerIP = s.attackerIP
	}
	return env
}

// Gateway returns the segment's gateway binding: the edge router's
// interface on a routed segment, host 0 on a flat LAN.
func (s *Site) Gateway() (ethaddr.IPv4, ethaddr.MAC) {
	if s.Router != nil {
		return s.Router.IP(), s.Router.MAC()
	}
	gw := s.LAN.Gateway()
	return gw.IP(), gw.MAC()
}

// faultView renders the segment as one faults site.
func (s *Site) faultView() faults.SiteEnv {
	v := s.LAN.FaultEnv().Sites[0]
	v.Router = s.Router
	return v
}

// Topology is the deployment-neutral surface shared by flat LANs (via
// Single) and the routed Campus: an ordered site list, a fault environment
// covering every segment and trunk, the run loop, and the collector's
// reads — merged alerts and the poisoning census — plus Stop, which ends
// the current Run early (callable from inside an event), and Recycle, which
// returns the topology's schedulers to the trial pool once the collector
// is done.
type Topology interface {
	Sites() []*Site
	FaultEnv() faults.Env
	Run(horizon time.Duration) error
	Stop()
	MergedAlerts() []SiteAlert
	PoisonedCount(ip ethaddr.IPv4, mac ethaddr.MAC) int
	Recycle()
}

// Single wraps a flat LAN as the one-site topology "lan 0". Hierarchical
// fault addresses like "lan:0/link:3" resolve to exactly the objects their
// bare-index spellings target, and scheme deployment lands on the LAN's
// single site.
type Single struct {
	LAN      *LAN
	Sink     *schemes.Sink
	Registry *telemetry.Registry
}

// Sites returns the LAN as site 0.
func (s *Single) Sites() []*Site {
	return []*Site{{Index: 0, LAN: s.LAN, Sink: s.Sink, Telemetry: s.Registry}}
}

// FaultEnv returns the LAN's one-site fault environment, carrying the
// registry when instrumented.
func (s *Single) FaultEnv() faults.Env {
	env := s.LAN.FaultEnv()
	env.Registry = s.Registry
	return env
}

// Run drains the LAN to the horizon.
func (s *Single) Run(horizon time.Duration) error { return s.LAN.Run(horizon) }

// Stop ends the current Run after the executing event.
func (s *Single) Stop() { s.LAN.Sched.Stop() }

// MergedAlerts returns the sink's alerts, every one on LAN 0.
func (s *Single) MergedAlerts() []SiteAlert { return mergeAlerts(s.Sites()) }

// PoisonedCount returns how many hosts currently bind ip to mac.
func (s *Single) PoisonedCount(ip ethaddr.IPv4, mac ethaddr.MAC) int {
	return s.LAN.boundTo(ip, mac)
}

// Recycle returns the LAN's scheduler to the trial pool.
func (s *Single) Recycle() { s.LAN.Recycle() }

// SiteAlert is one alert correlated into the topology-wide view.
type SiteAlert struct {
	schemes.Alert
	LAN int
}

// mergeAlerts correlates the per-site sinks into one deterministically
// ordered stream: by time, then site index, then per-sink arrival order.
func mergeAlerts(sites []*Site) []SiteAlert {
	var out []SiteAlert
	for _, s := range sites {
		for _, a := range s.Sink.Alerts() {
			out = append(out, SiteAlert{Alert: a, LAN: s.Index})
		}
	}
	// Per-sink order is already time-sorted; insertion sort is stable, so
	// arrival order stays the tiebreak, and it is linear on sorted input.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := &out[j-1], &out[j]
			if a.At < b.At || (a.At == b.At && a.LAN <= b.LAN) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

var (
	_ Topology = (*Single)(nil)
	_ Topology = (*Campus)(nil)
)
