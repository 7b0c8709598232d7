package registry

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/schemes"
	"repro/internal/telemetry"
)

// GuardParams configures the hybrid-guard preset: which registered members
// its stack deploys, and the seeds forwarded to its detectors.
type GuardParams struct {
	// Passive deploys arpwatch. With the verifier present it is demoted
	// to a corroboration source: its alerts fold into incidents but never
	// page.
	Passive bool `json:"passive"`
	// Active deploys active-probe (requires a monitor appliance).
	Active bool `json:"active"`
	// SeedGateway pre-loads the gateway's true binding into both
	// detectors.
	SeedGateway bool `json:"seedGateway"`
	// SeedVictim pre-loads the conventional victim's binding into
	// arpwatch; the prober learns it from the wire.
	SeedVictim bool `json:"seedVictim"`
	// ProtectVictim also deploys middleware on the victim.
	ProtectVictim bool `json:"protectVictim"`
}

// The hybrid guard is a preset stack over registered members, so it has
// no sub-package of its own and registers here.
func init() {
	Register(Factory{
		Name:        NameHybridGuard,
		Description: "preset stack: arpwatch corroborating active-probe (+ victim middleware), alerts folded into per-IP incidents",
		Deployment:  Deployment{Vantage: VantageMirrorPort, Cost: CostPerLAN},
		DefaultParams: func() any {
			return &GuardParams{Passive: true, Active: true, SeedGateway: true}
		},
		// Handle is the preset's *StackInstance; incidents surface
		// through the Instance.
		Deploy: func(env *Env, params any) (*Instance, error) {
			p := params.(*GuardParams)
			fold := newIncidentFold(env.Telemetry, p.Active)
			si, err := deployStack(env, p.stack(), fold)
			if err != nil {
				return nil, err
			}
			return &Instance{Handle: si, incidents: fold}, nil
		},
	})
}

// stack turns the preset's params into its member stack.
func (p *GuardParams) stack() Stack {
	st := Stack{Name: NameHybridGuard}
	if p.Passive {
		st.Schemes = append(st.Schemes, Selection{Name: NameArpwatch, Params: json.RawMessage(
			fmt.Sprintf(`{"seedGateway":%t,"seedVictim":%t}`, p.SeedGateway, p.SeedVictim))})
	}
	if p.Active {
		st.Schemes = append(st.Schemes, Selection{Name: NameActiveProbe, Params: json.RawMessage(
			fmt.Sprintf(`{"seedGateway":%t}`, p.SeedGateway))})
	}
	if p.ProtectVictim {
		st.Schemes = append(st.Schemes, Selection{Name: NameMiddleware, Params: json.RawMessage(`{"scope":"victim"}`)})
	}
	return st
}

// Incident aggregates every alert about one IP into a single actionable
// record, deduplicating the flood a periodic poisoner would otherwise
// produce.
type Incident struct {
	IP      ethaddr.IPv4
	FirstAt time.Duration
	LastAt  time.Duration
	Alerts  int
	// Suspect is the most recently asserted offending MAC.
	Suspect ethaddr.MAC
	// Confirmed is set once a verify-failed or conflict alert corroborates
	// the incident.
	Confirmed bool
}

// incidentFold is a preset stack's incident book. It sees every raw member
// alert ahead of the correlator, paged or not.
type incidentFold struct {
	byIP map[ethaddr.IPv4]*Incident
	// verified is set when active-probe is a member: arpwatch's alerts then
	// fold without paging, and only confirmed incidents are actionable.
	verified bool

	// Telemetry handles; nil (no-op) without a registry.
	reg       *telemetry.Registry
	events    *telemetry.EventLog
	opened    *telemetry.Counter
	confirmed *telemetry.Counter
	folded    map[string]*telemetry.Counter // component → folded-alert counter
}

func newIncidentFold(reg *telemetry.Registry, verified bool) *incidentFold {
	f := &incidentFold{byIP: make(map[ethaddr.IPv4]*Incident), verified: verified}
	if reg != nil {
		f.reg = reg
		f.events = reg.Events()
		f.opened = reg.Counter("guard_incidents_total", telemetry.L("state", "opened"))
		f.confirmed = reg.Counter("guard_incidents_total", telemetry.L("state", "confirmed"))
		f.folded = make(map[string]*telemetry.Counter)
	}
	return f
}

// add merges one alert into its incident and reports whether the alert
// pages.
func (f *incidentFold) add(a schemes.Alert) bool {
	inc, ok := f.byIP[a.IP]
	if !ok {
		inc = &Incident{IP: a.IP, FirstAt: a.At}
		f.byIP[a.IP] = inc
		f.opened.Inc()
		if f.events != nil {
			f.events.Log(telemetry.SevInfo, "guard", "incident opened",
				"ip", a.IP.String(), "scheme", a.Scheme)
		}
	}
	inc.LastAt = a.At
	inc.Alerts++
	if f.reg != nil {
		c, ok := f.folded[a.Scheme]
		if !ok {
			c = f.reg.Counter("guard_alerts_folded_total", telemetry.L("component", a.Scheme))
			f.folded[a.Scheme] = c
		}
		c.Inc()
	}
	if !a.NewMAC.IsZero() {
		inc.Suspect = a.NewMAC
	}
	if (a.Kind == schemes.AlertVerifyFailed || a.Kind == schemes.AlertConflict) && !inc.Confirmed {
		inc.Confirmed = true
		f.confirmed.Inc()
		if f.events != nil {
			f.events.Log(telemetry.SevWarn, "guard", "incident confirmed",
				"ip", a.IP.String(), "suspect", inc.Suspect.String(), "scheme", a.Scheme)
		}
	}
	return !f.verified || a.Scheme != NameArpwatch
}

// list returns the incidents sorted by (FirstAt, IP); actionable keeps
// only confirmed ones when a verifier is deployed.
func (f *incidentFold) list(actionable bool) []Incident {
	out := make([]Incident, 0, len(f.byIP))
	for _, inc := range f.byIP {
		if actionable && f.verified && !inc.Confirmed {
			continue
		}
		out = append(out, *inc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstAt != out[j].FirstAt {
			return out[i].FirstAt < out[j].FirstAt
		}
		return out[i].IP.Uint32() < out[j].IP.Uint32()
	})
	return out
}
