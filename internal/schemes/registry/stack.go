package registry

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/schemes"
	"repro/internal/stack"
)

// DefaultCorrelationWindow is how long a forwarded alert shadows later
// alerts for the same (IP, kind) before the stack pages again.
const DefaultCorrelationWindow = 5 * time.Second

// Selection names one scheme inside a stack, with optional JSON parameter
// overrides applied over the scheme's defaults.
type Selection struct {
	Name   string          `json:"name"`
	Params json.RawMessage `json:"params,omitempty"`
}

// Stack is an ordered defense-in-depth deployment: several schemes sharing
// one environment and one correlated alert stream. Order matters for
// switch-inline members — their filters cascade in deployment order, drop
// wins — and for alert attribution, since the first scheme to report a
// binding owns the forwarded alert.
type Stack struct {
	// Name labels the stack in reports; ParseStack derives it from the
	// member names ("dai+arpwatch+port-security").
	Name    string      `json:"name,omitempty"`
	Schemes []Selection `json:"schemes"`
	// CorrelationWindowSeconds overrides DefaultCorrelationWindow.
	CorrelationWindowSeconds float64 `json:"correlationWindowSeconds,omitempty"`
}

// window returns the effective correlation window.
func (st Stack) window() time.Duration {
	if st.CorrelationWindowSeconds > 0 {
		return time.Duration(st.CorrelationWindowSeconds * float64(time.Second))
	}
	return DefaultCorrelationWindow
}

// Label returns the stack's display name, deriving one from the member
// names when unset.
func (st Stack) Label() string {
	if st.Name != "" {
		return st.Name
	}
	names := make([]string, len(st.Schemes))
	for i, sel := range st.Schemes {
		names[i] = sel.Name
	}
	return strings.Join(names, "+")
}

// Validate resolves every member against the registry and decodes its
// parameters, so a stack in scenario JSON fails at load time — with the
// list of valid names — rather than mid-run.
func (st Stack) Validate() error {
	if len(st.Schemes) == 0 {
		return fmt.Errorf("stack %q: no schemes", st.Label())
	}
	for _, sel := range st.Schemes {
		if err := ValidateParams(sel.Name, sel.Params); err != nil {
			return fmt.Errorf("stack %q: %w", st.Label(), err)
		}
	}
	return nil
}

// ParseStack parses the CLI "a+b+c" stack syntax into a validated Stack.
func ParseStack(expr string) (Stack, error) {
	var st Stack
	for _, name := range strings.Split(expr, "+") {
		name = strings.TrimSpace(name)
		if name == "" {
			return Stack{}, fmt.Errorf("stack %q: empty scheme name", expr)
		}
		st.Schemes = append(st.Schemes, Selection{Name: name})
	}
	if err := st.Validate(); err != nil {
		return Stack{}, err
	}
	return st, nil
}

// CorrelationStats summarizes what the stack's alert correlator did.
type CorrelationStats struct {
	// Forwarded alerts reached the outer sink (one per correlation group).
	Forwarded int `json:"forwarded"`
	// Suppressed alerts were collapsed into an already-forwarded group.
	Suppressed int `json:"suppressed"`
	// CrossScheme counts suppressed alerts raised by a different scheme
	// than the group's first reporter — the redundancy layered deployments
	// buy.
	CrossScheme int `json:"crossScheme"`
}

// corrKey groups alerts for de-duplication: the same suspect binding event
// reported by several vantage points is one incident, not several pages.
type corrKey struct {
	ip   ethaddr.IPv4
	kind schemes.AlertKind
}

// corrGroup tracks one live correlation group.
type corrGroup struct {
	firstAt time.Duration
	scheme  string
}

// correlator collapses same-(IP, kind) alerts within a window into one
// forwarded, attributed alert. Alerts carry virtual timestamps, so the
// correlator needs no scheduler: a group opens at its first alert's time
// and shadows the window following it.
type correlator struct {
	window time.Duration
	out    *schemes.Sink
	groups map[corrKey]*corrGroup
	stats  CorrelationStats
	// fold, set only for preset stacks, sees every raw alert first.
	fold *incidentFold
}

func newCorrelator(window time.Duration, out *schemes.Sink, fold *incidentFold) *correlator {
	return &correlator{window: window, out: out, groups: make(map[corrKey]*corrGroup), fold: fold}
}

// observe processes one alert from the stack's inner sink.
func (c *correlator) observe(a schemes.Alert) {
	if c.fold != nil && !c.fold.add(a) {
		return
	}
	k := corrKey{ip: a.IP, kind: a.Kind}
	g, ok := c.groups[k]
	if ok && a.At-g.firstAt <= c.window {
		c.stats.Suppressed++
		if a.Scheme != g.scheme {
			c.stats.CrossScheme++
		}
		return
	}
	c.groups[k] = &corrGroup{firstAt: a.At, scheme: a.Scheme}
	c.stats.Forwarded++
	c.out.Report(a)
}

// StackInstance is a deployed stack.
type StackInstance struct {
	// Stack is the deployed configuration.
	Stack Stack
	// Members are the deployed schemes, in deployment order;
	// construction-only members (kernel policies, address defense) are
	// skipped by DeployStack and absent here.
	Members []*Instance
	// Inner is the members' private sink, retaining every raw alert before
	// correlation.
	Inner *schemes.Sink

	corr *correlator
}

// Correlation returns the de-duplication statistics so far.
func (si *StackInstance) Correlation() CorrelationStats { return si.corr.stats }

// Member returns the deployed instance of the named scheme, nil if absent.
func (si *StackInstance) Member(name string) *Instance {
	for _, m := range si.Members {
		if m.Factory.Name == name {
			return m
		}
	}
	return nil
}

// ResolverFor returns h's resolution path under the stack: the first
// protocol-replacement member claiming h wins, else plain ARP.
func (si *StackInstance) ResolverFor(h *stack.Host) ResolveFunc {
	for _, m := range si.Members {
		if m.Resolvers != nil {
			if r, ok := m.Resolvers[h]; ok {
				return r
			}
		}
	}
	return h.Resolve
}

// StackHostOptions collects the construction-time host options every member
// contributes, in stack order (later schemes win on conflicting options).
// Call it before assembling the LAN the stack will deploy into.
func StackHostOptions(st Stack) ([]stack.Option, error) {
	var opts []stack.Option
	for _, sel := range st.Schemes {
		o, err := HostOptions(sel.Name, sel.Params)
		if err != nil {
			return nil, fmt.Errorf("stack %q: %w", st.Label(), err)
		}
		opts = append(opts, o...)
	}
	return opts, nil
}

// DeployStack deploys every runtime member of st into env, in order. The
// members share a private sink whose alerts pass through the correlator
// before reaching env.Sink: the first report of an (IP, kind) pair is
// forwarded attributed to its scheme, and repeats within the correlation
// window — from any member — are suppressed. Construction-only members are
// skipped; their options must have been applied via StackHostOptions when
// the hosts were built.
func DeployStack(env *Env, st Stack) (*StackInstance, error) {
	return deployStack(env, st, nil)
}

// deployStack is DeployStack with an optional incident fold in front of
// the correlator, the one hook a preset stack adds.
func deployStack(env *Env, st Stack, fold *incidentFold) (*StackInstance, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if err := env.check(); err != nil {
		return nil, err
	}
	inner := schemes.NewSink()
	corr := newCorrelator(st.window(), env.Sink, fold)
	inner.OnAlert(corr.observe)

	memberEnv := *env
	memberEnv.Sink = inner

	si := &StackInstance{Stack: st, Inner: inner, corr: corr}
	for _, sel := range st.Schemes {
		f, err := mustLookup(sel.Name)
		if err != nil {
			return nil, err
		}
		if f.ConstructionOnly() {
			continue
		}
		inst, err := Deploy(&memberEnv, sel.Name, sel.Params)
		if err != nil {
			return nil, fmt.Errorf("stack %q: %w", st.Label(), err)
		}
		si.Members = append(si.Members, inst)
	}
	return si, nil
}
