// Package registry is the single construction seam for every defense scheme
// in the framework. Each scheme sub-package self-registers a Factory (in its
// register.go) declaring a canonical name, a JSON-serializable parameter
// struct, a human-readable description, and a Deployment descriptor — the
// vantage taxonomy the paper's analysis compares (host-resident,
// mirror-port, switch-inline, protocol-replacement) plus its cost model.
// The evaluation harness, the scenario loader, and the CLI tools all deploy
// schemes through Deploy/DeployStack instead of calling sub-package
// constructors, so adding a scheme means writing one register.go — every
// table, JSON schema, and catalogue listing picks it up automatically.
//
// Importing a scheme sub-package runs its registration; callers that want
// the whole catalogue blank-import repro/internal/schemes/registry/all.
package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ethaddr"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/telemetry"
)

// Canonical scheme names. Every string that names a scheme — eval tables,
// scenario JSON, CLI flags — is one of these constants; the scattered
// literals they replace used to drift between construction sites.
const (
	NameStaticARP      = "static-arp"
	NameKernelPolicy   = "kernel-policy"
	NameArpwatch       = "arpwatch"
	NameSnortLike      = "snort-like"
	NameActiveProbe    = "active-probe"
	NameMiddleware     = "middleware"
	NameFloodDetect    = "flood-detect"
	NameSARP           = "s-arp"
	NameTARP           = "tarp"
	NameDAI            = "dai"
	NamePortSecurity   = "port-security"
	NameHybridGuard    = "hybrid-guard"
	NameAddressDefense = "address-defense"
)

// Vantage is where a scheme observes or acts — the deployment taxonomy the
// paper's side-by-side analysis is organized around.
type Vantage string

// The four vantage classes.
const (
	// VantageHostResident schemes run on the protected station itself
	// (static ARP entries, kernel cache policies, host middleware).
	VantageHostResident Vantage = "host-resident"
	// VantageMirrorPort schemes watch a copy of the LAN's traffic from a
	// monitoring appliance (arpwatch, NIDS preprocessors, active probers).
	VantageMirrorPort Vantage = "mirror-port"
	// VantageSwitchInline schemes sit in the forwarding path and can drop
	// frames (dynamic ARP inspection, port security).
	VantageSwitchInline Vantage = "switch-inline"
	// VantageProtocolReplacement schemes substitute the resolution protocol
	// itself (S-ARP, TARP).
	VantageProtocolReplacement Vantage = "protocol-replacement"
)

// CostModel is what a deployment costs as the LAN grows.
type CostModel string

// Cost models.
const (
	// CostPerHost schemes must touch every protected station.
	CostPerHost CostModel = "per-host"
	// CostPerLAN schemes deploy once per segment (an appliance or the
	// switch) and cover everything behind it.
	CostPerLAN CostModel = "per-lan"
)

// Deployment describes where a scheme lives and what rolling it out costs.
type Deployment struct {
	Vantage Vantage   `json:"vantage"`
	Cost    CostModel `json:"cost"`
}

// Env is the environment a scheme deploys into: an assembled LAN's parts
// plus the shared alert sink. LANEnv adapts a labnet.LAN; experiments with
// bespoke topologies fill the fields themselves.
type Env struct {
	Sched  *sim.Scheduler
	Switch *netsim.Switch
	// Hosts are the regular stations; by labnet convention Hosts[0] is the
	// gateway and Hosts[1] the conventional victim.
	Hosts []*stack.Host
	// Ports holds each host's switch port, index-aligned with Hosts.
	Ports []*netsim.Port
	// Monitor is the appliance on the mirror port; nil when absent.
	Monitor     *stack.Host
	MonitorPort *netsim.Port
	// Attacker identity, when a station is attached; switch-inline schemes
	// whitelist its genuine binding so only forged claims violate.
	AttackerMAC  ethaddr.MAC
	AttackerIP   ethaddr.IPv4
	AttackerPort *netsim.Port
	// Sink receives every alert the deployed schemes raise.
	Sink *schemes.Sink
	// Telemetry, when non-nil, instruments the deployed schemes.
	Telemetry *telemetry.Registry
}

// Gateway returns the station playing the router (Hosts[0]).
func (e *Env) Gateway() *stack.Host { return e.Hosts[0] }

// Victim returns the conventional poisoning target (Hosts[1], falling back
// to the only host on degenerate topologies).
func (e *Env) Victim() *stack.Host {
	if len(e.Hosts) > 1 {
		return e.Hosts[1]
	}
	return e.Hosts[0]
}

// AddInlineFilter installs a switch-inline filter for the named scheme,
// chained behind previously deployed filters (drop wins) and instrumented
// against the environment's telemetry registry when present.
func (e *Env) AddInlineFilter(scheme string, f netsim.FilterFunc) {
	e.Switch.AddFilter(schemes.InstrumentFilter(e.Telemetry, scheme, f))
}

// AddTap installs a tap observer for the named scheme, wrapped in a causal
// inspection span when the environment's telemetry has tracing enabled —
// the seam that lets detection-latency attribution charge time to the
// scheme rather than the fabric.
func (e *Env) AddTap(scheme string, fn netsim.TapFunc) {
	e.Switch.AddTap(schemes.CausalTap(e.Telemetry.Causal(), scheme, fn))
}

// check validates the fields every deployment needs.
func (e *Env) check() error {
	if e == nil || e.Sched == nil || e.Switch == nil || len(e.Hosts) == 0 || e.Sink == nil {
		return fmt.Errorf("registry: incomplete deployment environment (need scheduler, switch, hosts, sink)")
	}
	return nil
}

// ResolveFunc resolves an address through a scheme's resolution path.
type ResolveFunc func(ip ethaddr.IPv4, done func(ethaddr.MAC, bool))

// Instance is one deployed scheme.
type Instance struct {
	// Factory is the registration the instance came from.
	Factory *Factory
	// Params is the resolved parameter struct the deployment used.
	Params any
	// Handle is the scheme-specific deployment object (each register.go
	// documents its concrete type); nil for schemes with nothing to expose.
	Handle any
	// Resolvers maps hosts to the scheme's resolution entry point; only
	// protocol replacements populate it.
	Resolvers map[*stack.Host]ResolveFunc

	// incidents is the preset's incident fold; nil for schemes that do
	// not aggregate alerts into incidents.
	incidents *incidentFold
}

// ResolverFor returns the function that resolves addresses from h under
// this deployment: the scheme's secured path for protocol replacements,
// the host's plain ARP path otherwise.
func (inst *Instance) ResolverFor(h *stack.Host) ResolveFunc {
	if inst != nil && inst.Resolvers != nil {
		if r, ok := inst.Resolvers[h]; ok {
			return r
		}
	}
	return h.Resolve
}

// FoldsIncidents reports whether the deployment aggregates its alerts into
// per-IP incidents (the hybrid-guard preset does).
func (inst *Instance) FoldsIncidents() bool { return inst != nil && inst.incidents != nil }

// Incidents returns every incident so far, sorted by FirstAt then IP; nil
// when the deployment does not fold incidents.
func (inst *Instance) Incidents() []Incident {
	if !inst.FoldsIncidents() {
		return nil
	}
	return inst.incidents.list(false)
}

// ActionableIncidents returns the incidents an operator would page on:
// with a verifier deployed, only confirmed ones; without one, every
// incident (there is nothing to corroborate against).
func (inst *Instance) ActionableIncidents() []Incident {
	if !inst.FoldsIncidents() {
		return nil
	}
	return inst.incidents.list(true)
}

// Factory is one registered scheme.
type Factory struct {
	// Name is the canonical scheme name (one of the Name* constants for
	// built-ins).
	Name string
	// Package is the sub-package under internal/schemes implementing the
	// scheme ("" for the factories registered by this package itself: the
	// hybrid-guard preset and the address defense). The completeness test
	// maps directories to factories through this field.
	Package string
	// Description is the one-line catalogue entry.
	Description string
	// Deployment classifies the scheme's vantage and cost.
	Deployment Deployment
	// DefaultParams returns a pointer to a fresh, JSON-serializable
	// parameter struct holding the scheme's defaults; nil when the scheme
	// takes no parameters.
	DefaultParams func() any
	// HostOptions contributes construction-time host options (cache
	// policies, address defense); nil for schemes deployed after the LAN
	// is assembled.
	HostOptions func(params any) ([]stack.Option, error)
	// Deploy installs the scheme into an assembled environment; nil for
	// schemes that act purely at host construction.
	Deploy func(env *Env, params any) (*Instance, error)
}

// ConstructionOnly reports whether the scheme deploys exclusively at host
// construction time (kernel policies, address defense).
func (f *Factory) ConstructionOnly() bool { return f.Deploy == nil }

var (
	regMu  sync.RWMutex
	byName = make(map[string]*Factory)
)

// Register adds a factory to the catalogue. It panics on an empty or
// duplicate name, or a factory with neither Deploy nor HostOptions —
// registration bugs, caught by the first test that imports the package.
func Register(f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if f.Name == "" {
		panic("registry: factory with empty name")
	}
	if _, dup := byName[f.Name]; dup {
		panic(fmt.Sprintf("registry: duplicate scheme %q", f.Name))
	}
	if f.Deploy == nil && f.HostOptions == nil {
		panic(fmt.Sprintf("registry: scheme %q registers no deployment path", f.Name))
	}
	fc := f
	byName[f.Name] = &fc
}

// Lookup returns the named factory.
func Lookup(name string) (*Factory, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := byName[name]
	return f, ok
}

// Names returns every registered scheme name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Factories returns every registration, sorted by name.
func Factories() []*Factory {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Factory, 0, len(byName))
	for _, f := range byName {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// UnknownSchemeError builds the load-time error for a name the registry
// does not know, listing every valid name so JSON typos are self-repairing.
func UnknownSchemeError(name string) error {
	return fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// mustLookup resolves a name or returns the catalogue-listing error.
func mustLookup(name string) (*Factory, error) {
	f, ok := Lookup(name)
	if !ok {
		return nil, UnknownSchemeError(name)
	}
	return f, nil
}

// P is a parameter overlay: a loosely-typed bag merged over a scheme's
// default parameters. It lets callers adjust one knob without importing the
// scheme sub-package's parameter type.
type P map[string]any

// ResolveParams materializes the parameter struct a deployment will use:
// nil keeps the defaults; a P overlay or json.RawMessage is decoded over
// them (unknown fields are errors). Any other type is an error.
func ResolveParams(f *Factory, params any) (any, error) {
	if f.DefaultParams == nil {
		if params != nil {
			return nil, fmt.Errorf("scheme %q takes no parameters", f.Name)
		}
		return nil, nil
	}
	base := f.DefaultParams()
	switch p := params.(type) {
	case nil:
		return base, nil
	case P:
		raw, err := json.Marshal(map[string]any(p))
		if err != nil {
			return nil, fmt.Errorf("scheme %q params: %w", f.Name, err)
		}
		return overlay(f.Name, base, raw)
	case json.RawMessage:
		if len(p) == 0 {
			return base, nil
		}
		return overlay(f.Name, base, p)
	default:
		return nil, fmt.Errorf("scheme %q params: got %T, want a registry.P overlay or a json.RawMessage", f.Name, p)
	}
}

// overlay strictly decodes raw JSON over the defaults.
func overlay(scheme string, base any, raw []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(base); err != nil {
		return nil, fmt.Errorf("scheme %q params: %w", scheme, err)
	}
	return base, nil
}

// ValidateParams checks that raw JSON parameters decode cleanly for the
// named scheme without deploying anything — the scenario loader's
// fail-at-load-time hook.
func ValidateParams(name string, raw json.RawMessage) error {
	f, err := mustLookup(name)
	if err != nil {
		return err
	}
	_, err = ResolveParams(f, raw)
	return err
}

// Deploy installs one scheme into env. params may be nil (defaults), a P
// overlay, or a json.RawMessage (see ResolveParams).
func Deploy(env *Env, name string, params any) (*Instance, error) {
	f, err := mustLookup(name)
	if err != nil {
		return nil, err
	}
	if err := env.check(); err != nil {
		return nil, err
	}
	if f.ConstructionOnly() {
		return nil, fmt.Errorf("scheme %q deploys at host construction time; apply its HostOptions when assembling the LAN", name)
	}
	p, err := ResolveParams(f, params)
	if err != nil {
		return nil, err
	}
	inst, err := f.Deploy(env, p)
	if err != nil {
		return nil, fmt.Errorf("deploy %q: %w", name, err)
	}
	inst.Factory = f
	inst.Params = p
	return inst, nil
}

// HostOptions returns the construction-time host options the named scheme
// contributes (empty for most schemes).
func HostOptions(name string, params any) ([]stack.Option, error) {
	f, err := mustLookup(name)
	if err != nil {
		return nil, err
	}
	if f.HostOptions == nil {
		return nil, nil
	}
	p, err := ResolveParams(f, params)
	if err != nil {
		return nil, err
	}
	return f.HostOptions(p)
}

// CatalogueLine renders one factory for the CLI catalogues: name, vantage,
// cost, and the default parameters as compact JSON.
func CatalogueLine(f *Factory) string {
	params := "-"
	if f.DefaultParams != nil {
		if raw, err := json.Marshal(f.DefaultParams()); err == nil {
			params = string(raw)
		}
	}
	return fmt.Sprintf("%-16s %-21s %-9s %s", f.Name, f.Deployment.Vantage, f.Deployment.Cost, params)
}

// WriteCatalogue renders the full registry catalogue, one scheme per line.
func WriteCatalogue(w interface{ Write([]byte) (int, error) }) error {
	for _, f := range Factories() {
		if _, err := fmt.Fprintf(w, "%s\n  %s\n", CatalogueLine(f), f.Description); err != nil {
			return err
		}
	}
	return nil
}
