// Package scenario runs JSON-described experiments: a LAN shape, a set of
// deployed defense schemes, and an attack timeline, producing a structured
// result. It exists so users can reproduce and share attack/defense
// matchups without writing Go — the configuration front end over labnet,
// schemes, and attack.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/arppkt"
	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/kernelpolicy"
	"repro/internal/schemes/registry"
	_ "repro/internal/schemes/registry/all" // link every scheme factory
	"repro/internal/schemes/sarp"
	"repro/internal/schemes/tarp"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Spec is the JSON description of one experiment.
type Spec struct {
	// Seed drives all randomness (default 1).
	Seed int64 `json:"seed"`
	// Hosts is the number of stations, gateway included (default 4,
	// minimum 2 — the gateway and the victim — and maximum 65: host i sits
	// at .i+1, and every scenario attaches the attacker at .66).
	Hosts int `json:"hosts"`
	// Policy names the hosts' cache policy profile (default "naive").
	Policy string `json:"policy"`
	// DurationSeconds is the simulated run length (default 60).
	DurationSeconds float64 `json:"durationSeconds"`
	// Schemes lists the defenses to deploy, each standing alone.
	Schemes []SchemeSpec `json:"schemes"`
	// Stacks lists composed defense-in-depth deployments: each stack's
	// members share an alert correlator that collapses same-(IP, kind)
	// duplicates within the correlation window into one attributed alert.
	Stacks []registry.Stack `json:"stacks,omitempty"`
	// Attacks is the attack timeline.
	Attacks []AttackSpec `json:"attacks"`
	// Faults is the optional network-failure timeline, injected beneath the
	// schemes (burst loss, duplication, reordering, link flaps, host churn,
	// CAM flushes — plus trunk partitions and router flushes on a campus).
	// A flat LAN is segment 0: "lan:0/link:i" targets host i's attachment
	// (0 = gateway), the monitor's link, when deployed, is index hosts, and
	// "lan:0/host:i" is host i. On a campus the same addresses ("lan:3/link:7",
	// "lan:*", "trunk:2-5") reach any segment. The dhcp-outage fault is not
	// available here — scenarios deploy no DHCP server.
	Faults *faults.Plan `json:"faults,omitempty"`
	// Campus, when present, replaces the single flat LAN with a routed
	// multi-LAN campus on the sharded engine: one access LAN per shard
	// behind a full trunk mesh. Schemes, stacks, and faults deploy through
	// the same topology-neutral plane as flat runs — top-level Schemes and
	// Stacks land on every LAN, Deployments scope them to segments, and the
	// attack timeline runs inside the attacker's LAN against that segment's
	// router gateway. Hosts is ignored (the campus fields size the topology).
	Campus *CampusSpec `json:"campus,omitempty"`
}

// CampusSpec sizes the routed campus topology.
type CampusSpec struct {
	// LANs is the number of routed access LANs — and scheduler shards
	// (default 4, max 250 from the 10.<lan>.0.0/16 addressing plan).
	LANs int `json:"lans"`
	// HostsPerLAN is the per-LAN population: active protocol stacks plus
	// the flyweight station bank (default 16, minimum 2).
	HostsPerLAN int `json:"hostsPerLAN"`
	// ActiveHostsPerLAN is how many stations run full stacks (default 4,
	// minimum 2 — the victim and one bystander).
	ActiveHostsPerLAN int `json:"activeHostsPerLAN,omitempty"`
	// TrunkLatencyMicros is the backbone one-way delay in microseconds —
	// the sharded engine's conservative lookahead bound (default 1000).
	TrunkLatencyMicros float64 `json:"trunkLatencyMicros,omitempty"`
	// Workers sets the shard worker pool width (default 0: one worker,
	// every shard on one goroutine; output is identical at any width).
	Workers int `json:"workers,omitempty"`
	// AttackerLAN places the attacker's segment (default 0); the attack
	// timeline targets that LAN's router gateway and victim station.
	AttackerLAN int `json:"attackerLan,omitempty"`
	// Deployments scope schemes and stacks to segment subsets; top-level
	// Schemes and Stacks deploy fabric-wide.
	Deployments []LANDeployment `json:"deployments,omitempty"`
}

// LANDeployment deploys schemes and stacks onto a subset of campus
// segments — how heterogeneous defenses (DAI on the server LANs, arpwatch
// everywhere else) are described.
type LANDeployment struct {
	// LANs selects segments: "*" (every LAN, the default), a single index
	// like "3", or an inclusive range like "2-5".
	LANs string `json:"lans,omitempty"`
	// Schemes deploy standalone on each selected segment.
	Schemes []SchemeSpec `json:"schemes,omitempty"`
	// Stacks deploy correlated a+b+c composites on each selected segment.
	Stacks []registry.Stack `json:"stacks,omitempty"`
}

// lans returns the campus's segment count, labnet's default applied.
func (cs *CampusSpec) lans() int {
	if cs.LANs == 0 {
		return 4
	}
	return cs.LANs
}

// parseLANSelector resolves a deployment's segment selector against n LANs.
func parseLANSelector(sel string, n int) ([]int, error) {
	bad := func() error {
		return fmt.Errorf("bad lan selector %q (valid: \"*\" for every LAN, a single index like \"3\", or an inclusive range like \"2-5\")", sel)
	}
	if sel == "" || sel == "*" {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	lo, hi := 0, 0
	if a, b, ok := strings.Cut(sel, "-"); ok {
		la, errA := strconv.Atoi(a)
		lb, errB := strconv.Atoi(b)
		if errA != nil || errB != nil || la > lb {
			return nil, bad()
		}
		lo, hi = la, lb
	} else {
		v, err := strconv.Atoi(sel)
		if err != nil {
			return nil, bad()
		}
		lo, hi = v, v
	}
	if lo < 0 || hi >= n {
		return nil, fmt.Errorf("lan selector %q outside the campus's [0, %d) segments", sel, n)
	}
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out, nil
}

// SchemeSpec deploys one defense.
type SchemeSpec struct {
	// Name is a registered scheme (`arpbench -list` or `arpguard -schemes`
	// print the catalogue): arpwatch | active-probe | middleware |
	// hybrid-guard | dai | port-security | flood-detect | snort-like |
	// static-arp | address-defense | kernel-policy | s-arp | tarp.
	Name string `json:"name"`
	// Params overrides the scheme's default parameters; the catalogue shows
	// each scheme's parameter fields and defaults. Unknown keys are rejected
	// at load time.
	Params json.RawMessage `json:"params,omitempty"`
}

// maxFlatHosts is the most stations a flat scenario LAN holds: labnet puts
// host i at .i+1 and the attacker at .66, so a 66th host would share the
// attacker's address.
const maxFlatHosts = 65

// Attack timeline bounds: every flooding action schedules its whole burst
// up front, and a sub-millisecond period would drown the run in re-arms.
const (
	maxAttackCount  = 100_000
	minAttackPeriod = 0.001
)

// AttackSpec schedules one attacker action.
type AttackSpec struct {
	// AtSeconds is when the action starts.
	AtSeconds float64 `json:"atSeconds"`
	// Type: poison | mitm | blackhole | cam-flood | cache-flood | scan |
	// port-steal.
	Type string `json:"type"`
	// Variant selects the poisoning delivery for type "poison"
	// (gratuitous | unsolicited-reply | request-spoof | reply-race).
	Variant string `json:"variant,omitempty"`
	// Count sizes flooding attacks (default 500, max 100000). A scan
	// sweeps hosts 1..Count of the attacker's segment, stopping at the
	// subnet's last host address (254 on the flat /24).
	Count int `json:"count,omitempty"`
	// PeriodSeconds paces periodic actions (default 2, minimum 0.001).
	PeriodSeconds float64 `json:"periodSeconds,omitempty"`
}

// Load parses a Spec from JSON and validates every scheme reference against
// the registry, so a typo fails here — listing the valid names — rather than
// minutes into a run.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("parse scenario: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the parts of a Spec that can fail without running
// anything: topology sizes, attack timeline bounds, scheme names and
// parameters, stack composition, and the cache policy name. Load calls it;
// callers assembling Specs in code can too.
func (spec *Spec) Validate() error {
	if spec.DurationSeconds < 0 {
		return fmt.Errorf("durationSeconds %v is negative", spec.DurationSeconds)
	}
	if spec.Campus == nil && spec.Hosts != 0 && spec.Hosts < 2 {
		return fmt.Errorf("hosts %d: need at least 2 (the gateway and the victim)", spec.Hosts)
	}
	if spec.Campus == nil && spec.Hosts > maxFlatHosts {
		return fmt.Errorf("hosts %d: a flat LAN holds at most %d (host i sits at .i+1 and the attacker at .66)", spec.Hosts, maxFlatHosts)
	}
	for i, a := range spec.Attacks {
		switch {
		case a.AtSeconds < 0 || a.PeriodSeconds < 0 || a.Count < 0:
			return fmt.Errorf("attack %d: atSeconds, periodSeconds and count must not be negative", i)
		case a.PeriodSeconds > 0 && a.PeriodSeconds < minAttackPeriod:
			return fmt.Errorf("attack %d: periodSeconds %v below the %vs floor", i, a.PeriodSeconds, minAttackPeriod)
		case a.Count > maxAttackCount:
			return fmt.Errorf("attack %d: count %d exceeds %d", i, a.Count, maxAttackCount)
		}
	}
	for _, s := range spec.Schemes {
		if err := registry.ValidateParams(s.Name, s.Params); err != nil {
			return err
		}
	}
	for i := range spec.Stacks {
		if err := spec.Stacks[i].Validate(); err != nil {
			return err
		}
	}
	if spec.Campus != nil {
		cs := spec.Campus
		if cs.LANs < 0 {
			return fmt.Errorf("campus: lans %d is negative", cs.LANs)
		}
		if cs.LANs > 250 {
			return fmt.Errorf("campus: %d LANs exceeds the 10.<lan>.0.0/16 addressing plan (max 250)", cs.LANs)
		}
		if cs.HostsPerLAN != 0 && cs.HostsPerLAN < 2 {
			return fmt.Errorf("campus: hostsPerLAN %d must be at least 2 (the victim and one bystander)", cs.HostsPerLAN)
		}
		if cs.ActiveHostsPerLAN != 0 && cs.ActiveHostsPerLAN < 2 {
			return fmt.Errorf("campus: activeHostsPerLAN %d must be at least 2 (the victim and one bystander)", cs.ActiveHostsPerLAN)
		}
		lans := cs.lans()
		if cs.AttackerLAN < 0 || cs.AttackerLAN >= lans {
			return fmt.Errorf("campus: attackerLan %d outside the campus's [0, %d) segments", cs.AttackerLAN, lans)
		}
		for di, d := range cs.Deployments {
			if _, err := parseLANSelector(d.LANs, lans); err != nil {
				return fmt.Errorf("campus deployment %d: %w", di, err)
			}
			for _, s := range d.Schemes {
				if err := registry.ValidateParams(s.Name, s.Params); err != nil {
					return fmt.Errorf("campus deployment %d: %w", di, err)
				}
			}
			for i := range d.Stacks {
				if err := d.Stacks[i].Validate(); err != nil {
					return fmt.Errorf("campus deployment %d: %w", di, err)
				}
			}
			if len(d.Schemes) == 0 && len(d.Stacks) == 0 {
				return fmt.Errorf("campus deployment %d: deploys nothing (add schemes or stacks, or drop the entry)", di)
			}
		}
	}
	if spec.Policy != "" {
		if _, ok := kernelpolicy.Find(spec.Policy); !ok {
			names := make([]string, 0, len(kernelpolicy.Profiles()))
			for _, p := range kernelpolicy.Profiles() {
				names = append(names, p.Name)
			}
			return fmt.Errorf("unknown cache policy %q (valid: %s)", spec.Policy, strings.Join(names, ", "))
		}
	}
	return nil
}

// Result is what one run produced.
type Result struct {
	Duration        time.Duration  `json:"-"`
	AlertsByScheme  map[string]int `json:"alertsByScheme"`
	AlertsByKind    map[string]int `json:"alertsByKind"`
	FirstAlerts     []string       `json:"firstAlerts"`
	PoisonedHosts   int            `json:"poisonedHosts"`
	GuardIncidents  int            `json:"guardIncidents"`
	GuardConfirmed  int            `json:"guardConfirmed"`
	AttackerForged  uint64         `json:"attackerForged"`
	AttackerSniffed uint64         `json:"attackerSniffedBytes"`
	SwitchFiltered  uint64         `json:"switchFiltered"`
	CAMEntries      int            `json:"camEntries"`
	// StackStats reports, per deployed stack, how its alert correlator
	// collapsed the members' raw alerts; empty when the scenario declared no
	// stacks.
	StackStats []StackResult `json:"stackStats,omitempty"`
	// FaultStats counts what the fault plan injected; nil when the scenario
	// declared no faults.
	FaultStats *faults.Stats `json:"faultStats,omitempty"`
	// CaptureStats summarizes the frames a full-mirror capture saw during
	// the run: totals, type and ARP-op breakdowns, ring drops. Campus runs
	// mirror LAN 0 only (the instrumented segment).
	CaptureStats trace.Stats `json:"captureStats"`
	// Campus reports the routed-topology figures; nil for flat-LAN runs.
	Campus *CampusResult `json:"campus,omitempty"`
	// Telemetry is the end-of-run metrics snapshot covering the scheduler,
	// switch, hosts, and every deployed scheme.
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// CampusResult is the campus-wide view of a routed multi-LAN run.
type CampusResult struct {
	// LANs and Hosts size the topology that actually ran (active stacks
	// plus bank stations).
	LANs  int `json:"lans"`
	Hosts int `json:"hosts"`
	// FabricFrames is the total the campus switches carried; CrossLAN
	// counts the subset that crossed the backbone between shards.
	FabricFrames   uint64 `json:"fabricFrames"`
	CrossLANFrames uint64 `json:"crossLANFrames"`
}

// StackResult is one stack's correlation summary.
type StackResult struct {
	// Stack is the member list joined with "+".
	Stack string `json:"stack"`
	// Forwarded alerts reached the operator; Suppressed were collapsed as
	// duplicates, CrossScheme of those coming from a different member than
	// the first reporter (vantage redundancy, not noise).
	Forwarded   int `json:"forwarded"`
	Suppressed  int `json:"suppressed"`
	CrossScheme int `json:"crossScheme"`
}

// RunOption adjusts how Run executes a scenario.
type RunOption func(*runConfig)

type runConfig struct {
	registry *telemetry.Registry
	tracing  bool
	hook     func(*Deployment) func()
}

// WithRegistry uses the supplied registry instead of a run-private one, so
// callers can export the metrics themselves (e.g. Prometheus text) and
// stream its events (Registry.Events().StreamTo, the CLIs' -v flag).
func WithRegistry(reg *telemetry.Registry) RunOption {
	return func(c *runConfig) { c.registry = reg }
}

// WithTracing enables causal span tracing on a flat LAN (see
// labnet.Config.Tracing): the run's registry then carries the recorder,
// reachable through Registry.Causal. Campus runs ignore it.
func WithTracing() RunOption {
	return func(c *runConfig) { c.tracing = true }
}

// WithHook hands the deployed topology to hook once schemes, the attack
// timeline, faults and background traffic are armed, just before the run:
// the hook may add taps, handlers and events of its own. The func it
// returns, when not nil, is called after the run and before the topology
// is recycled — the last moment hosts, caches and sinks can be read.
func WithHook(hook func(*Deployment) func()) RunOption {
	return func(c *runConfig) { c.hook = hook }
}

// Render writes a human-readable summary.
func (r *Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "scenario finished after %v simulated\n", r.Duration)
	if r.Campus != nil {
		fmt.Fprintf(w, "  campus: %d LANs, %d hosts, %d fabric frames (%d cross-LAN)\n",
			r.Campus.LANs, r.Campus.Hosts, r.Campus.FabricFrames, r.Campus.CrossLANFrames)
	}
	fmt.Fprintf(w, "  hosts poisoned at end: %d\n", r.PoisonedHosts)
	fmt.Fprintf(w, "  attacker: %d forged packets, %d payload bytes captured\n",
		r.AttackerForged, r.AttackerSniffed)
	fmt.Fprintf(w, "  switch: %d frames filtered inline, %d CAM entries\n",
		r.SwitchFiltered, r.CAMEntries)
	if r.GuardIncidents > 0 {
		fmt.Fprintf(w, "  guard: %d incidents (%d confirmed)\n", r.GuardIncidents, r.GuardConfirmed)
	}
	for _, st := range r.StackStats {
		fmt.Fprintf(w, "  stack %s: %d alerts forwarded, %d suppressed (%d cross-scheme)\n",
			st.Stack, st.Forwarded, st.Suppressed, st.CrossScheme)
	}
	if r.FaultStats != nil {
		fs := r.FaultStats
		fmt.Fprintf(w, "  faults: %d burst-dropped, %d duplicated, %d reordered, %d flap-dropped, %d churns, %d CAM flushes\n",
			fs.BurstDropped, fs.Duplicated, fs.Reordered, fs.FlapDropped, fs.HostChurns, fs.CAMFlushes)
		if fs.TrunkPartitions > 0 || fs.RouterFlushes > 0 {
			fmt.Fprintf(w, "  campus faults: %d trunk partitions (%d frames dropped), %d router flushes\n",
				fs.TrunkPartitions, fs.TrunkDropped, fs.RouterFlushes)
		}
	}
	schemesSorted := make([]string, 0, len(r.AlertsByScheme))
	for s := range r.AlertsByScheme {
		schemesSorted = append(schemesSorted, s)
	}
	sort.Strings(schemesSorted)
	for _, s := range schemesSorted {
		fmt.Fprintf(w, "  %s: %d alerts\n", s, r.AlertsByScheme[s])
	}
	for _, line := range r.FirstAlerts {
		fmt.Fprintf(w, "  first: %s\n", line)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Run executes the scenario. It assembles the topology — one flat LAN, or
// a routed campus when the spec has a Campus section — and runs one
// sequence over its sites: deploy, arm the attack timeline against the
// attacker site's gateway, arm faults, start background traffic, run,
// collect.
func Run(spec *Spec, opts ...RunOption) (*Result, error) {
	var rc runConfig
	for _, opt := range opts {
		opt(&rc)
	}
	if rc.registry == nil {
		rc.registry = telemetry.New()
	}
	reg := rc.registry

	if spec.Campus == nil && spec.Hosts == 0 {
		spec.Hosts = 4
	}
	if spec.DurationSeconds == 0 {
		spec.DurationSeconds = 60
	}
	if spec.Policy == "" {
		spec.Policy = "naive"
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	layers := spec.layers()
	top, err := spec.assemble(layers, reg, rc.tracing)
	if err != nil {
		return nil, err
	}
	defer top.Recycle()
	sites := top.Sites()
	capture := trace.NewTally(0)
	sites[0].LAN.Switch.AddTap(capture.Tap())
	sites[0].Sink.Instrument(reg)

	dep := Deployment{Sites: sites}
	for k, layer := range layers {
		if err := deployOnto(sites, layer, &dep); err != nil {
			return nil, layerErr(k, err)
		}
	}

	var atkSite *labnet.Site
	for _, s := range sites {
		if s.LAN.Attacker != nil {
			atkSite = s
			break
		}
	}
	if err := armAttacks(spec, atkSite); err != nil {
		return nil, err
	}

	// Faults are armed after scheme deployment so injector streams never
	// depend on which defenses are present, and before the run so every
	// window edge lands on the timeline. Schemes get no say and no notice.
	var faultCtl *faults.Controller
	if spec.Faults != nil {
		if faultCtl, err = faults.Apply(spec.Faults, top.FaultEnv()); err != nil {
			return nil, err
		}
	}

	// Background traffic keeps caches and detectors exercised on every
	// segment: each active station other than the gateway works through
	// its segment's gateway. Campus banks generate their own bulk load.
	for _, s := range sites {
		gwIP, _ := s.Gateway()
		for _, h := range s.LAN.Hosts {
			if h.IP() == gwIP {
				continue
			}
			h := h
			s.LAN.Sched.Every(5*time.Second, func() { h.SendUDP(gwIP, 2000, 80, []byte("work")) })
		}
	}

	var after func()
	if rc.hook != nil {
		after = rc.hook(&dep)
	}
	duration := time.Duration(spec.DurationSeconds * float64(time.Second))
	if err := top.Run(duration); err != nil {
		return nil, err
	}
	if after != nil {
		after()
	}

	gwIP, _ := atkSite.Gateway()
	atk := atkSite.LAN.Attacker
	res := &Result{
		Duration:        duration,
		AlertsByScheme:  make(map[string]int),
		AlertsByKind:    make(map[string]int),
		PoisonedHosts:   top.PoisonedCount(gwIP, atk.MAC()),
		AttackerForged:  atk.Stats().Forged,
		AttackerSniffed: atk.Stats().Sniffed,
		CaptureStats:    capture.Stats(),
		Telemetry:       reg.Snapshot(),
	}
	for _, s := range sites {
		res.SwitchFiltered += s.LAN.Switch.Stats().Filtered
		res.CAMEntries += s.LAN.Switch.CAMLen()
	}
	if c, ok := top.(*labnet.Campus); ok {
		res.Campus = &CampusResult{
			LANs:           len(c.LANs),
			Hosts:          c.TotalHosts(),
			FabricFrames:   c.Frames(),
			CrossLANFrames: c.Sharded.CrossMessages(),
		}
	}
	seenScheme := make(map[string]bool)
	for _, a := range top.MergedAlerts() {
		res.AlertsByScheme[a.Scheme]++
		res.AlertsByKind[a.Kind.String()]++
		if !seenScheme[a.Scheme] {
			seenScheme[a.Scheme] = true
			first := a.String()
			if sites[a.LAN].Router != nil {
				first = fmt.Sprintf("lan%d %s", a.LAN, first)
			}
			res.FirstAlerts = append(res.FirstAlerts, first)
		}
	}
	dep.guardResults(res)
	res.StackStats = dep.stackResults()
	if faultCtl != nil {
		fs := faultCtl.Stats()
		res.FaultStats = &fs
	}
	return res, nil
}

// assemble builds the spec's topology: the flat LAN as the one-site
// labnet.Single, or the routed campus. The top-level layer's construction
// host options reach every segment, a campus deployment's only the LANs
// it selects.
func (spec *Spec) assemble(layers []LANDeployment, reg *telemetry.Registry, tracing bool) (labnet.Topology, error) {
	prof, _ := kernelpolicy.Find(spec.Policy) // Validate vouched for the name
	shared, err := hostOptions(layers[0])
	if err != nil {
		return nil, err
	}
	cs := spec.Campus
	if cs == nil {
		l := labnet.New(labnet.Config{
			Seed:         spec.Seed,
			Hosts:        spec.Hosts,
			Policy:       prof.Policy,
			WithAttacker: true,
			WithMonitor:  true,
			HostOptions:  shared,
			Telemetry:    reg,
			Tracing:      tracing,
		})
		return &labnet.Single{LAN: l, Sink: schemes.NewSink(), Registry: reg}, nil
	}
	perLAN := make(map[int][]stack.Option)
	for k, layer := range layers[1:] {
		opts, err := hostOptions(layer)
		if err != nil {
			return nil, layerErr(k+1, err)
		}
		lans, _ := parseLANSelector(layer.LANs, cs.lans()) // Validate vouched
		for _, li := range lans {
			perLAN[li] = append(perLAN[li], opts...)
		}
	}
	trunk := time.Millisecond
	if cs.TrunkLatencyMicros > 0 {
		trunk = time.Duration(cs.TrunkLatencyMicros * float64(time.Microsecond))
	}
	return labnet.NewCampus(labnet.CampusConfig{
		Seed:              spec.Seed,
		LANs:              cs.LANs,
		HostsPerLAN:       cs.HostsPerLAN,
		ActiveHostsPerLAN: cs.ActiveHostsPerLAN,
		TrunkLatency:      trunk,
		Workers:           cs.Workers,
		Policy:            prof.Policy,
		HostOptions:       shared,
		LANHostOptions:    perLAN,
		WithAttacker:      true,
		AttackerLAN:       cs.AttackerLAN,
		Telemetry:         reg,
	}), nil
}

// armAttacks schedules the spec's attack timeline inside the attacker's
// segment, against that segment's gateway and victim.
func armAttacks(spec *Spec, site *labnet.Site) error {
	atk, victim, subnet := site.LAN.Attacker, site.LAN.Victim(), site.LAN.Subnet
	gwIP, gwMAC := site.Gateway()
	for _, a := range spec.Attacks {
		a := a
		at := time.Duration(a.AtSeconds * float64(time.Second))
		period := 2 * time.Second
		if a.PeriodSeconds > 0 {
			period = time.Duration(a.PeriodSeconds * float64(time.Second))
		}
		count := a.Count
		if count == 0 {
			count = 500
		}
		var action func()
		switch a.Type {
		case "poison":
			variant, err := parseVariant(a.Variant)
			if err != nil {
				return err
			}
			signed := spec.runsScheme(site.Index, registry.NameSARP)
			tagged := spec.runsScheme(site.Index, registry.NameTARP)
			action = func() {
				if variant == attack.VariantReplyRace {
					atk.ArmReplyRace(gwIP, victim.IP(), 0)
					victim.Cache().Delete(gwIP)
					victim.Resolve(gwIP, nil)
					return
				}
				atk.Poison(variant, gwIP, atk.MAC(), victim.MAC(), victim.IP())
				// S-ARP and TARP hosts ignore plain ARP: also forge the
				// segment's secured reply so those schemes have something
				// to reject.
				if signed {
					m := &sarp.Message{ARP: arppkt.NewReply(atk.MAC(), gwIP, victim.MAC(), victim.IP()),
						Timestamp: site.LAN.Sched.Now(), Sig: []byte("forged")}
					atk.NIC().Send(&frame.Frame{Dst: victim.MAC(), Src: atk.MAC(), Type: frame.TypeSARP, Payload: m.Encode()})
				}
				if tagged {
					m := &tarp.Message{ARP: arppkt.NewReply(atk.MAC(), gwIP, victim.MAC(), victim.IP())}
					atk.NIC().Send(&frame.Frame{Dst: victim.MAC(), Src: atk.MAC(), Type: frame.TypeTARP, Payload: m.Encode()})
				}
			}
		case "mitm":
			action = func() {
				atk.PoisonPeriodically(period, victim.MAC(), victim.IP(), gwMAC, gwIP)
				atk.RelayBetween(victim.MAC(), victim.IP(), gwMAC, gwIP)
			}
		case "blackhole":
			action = func() {
				atk.Poison(attack.VariantUnsolicitedReply, gwIP, atk.MAC(),
					victim.MAC(), victim.IP())
				atk.BlackholeTraffic(gwIP)
			}
		case "cam-flood":
			action = func() {
				atk.FloodCAM(ethaddr.NewGen(spec.Seed+13), count, time.Millisecond)
			}
		case "cache-flood":
			action = func() {
				atk.FloodCache(ethaddr.NewGen(spec.Seed+17), subnet, count, time.Millisecond)
			}
		case "scan":
			last := min(count, subnet.HostCount())
			action = func() {
				atk.Scan(subnet, 1, last, 10*time.Millisecond)
			}
		case "port-steal":
			action = func() {
				atk.StealPort(victim.MAC(), victim.IP(), period, true)
			}
		default:
			return fmt.Errorf("unknown attack type %q", a.Type)
		}
		site.LAN.Sched.At(at, action)
	}
	return nil
}

// parseVariant maps a JSON variant name to the attack enum.
func parseVariant(name string) (attack.Variant, error) {
	if name == "" {
		return attack.VariantUnsolicitedReply, nil
	}
	for _, v := range attack.Variants() {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown poison variant %q", name)
}
