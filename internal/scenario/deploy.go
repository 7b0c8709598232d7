// The scenario engine's half of the topology-neutral deployment plane:
// one code path installs schemes and stacks onto any []*labnet.Site —
// a flat LAN renders one site, a campus renders one per segment — so the
// flat and routed worlds can never drift apart in how they deploy.
package scenario

import (
	"fmt"
	"slices"

	"repro/internal/labnet"
	"repro/internal/schemes/registry"
	"repro/internal/stack"
)

// layers lists the spec's deployments in deployment order: the top-level
// schemes and stacks on every site, then each campus Deployments entry on
// the segments it selects.
func (spec *Spec) layers() []LANDeployment {
	out := []LANDeployment{{Schemes: spec.Schemes, Stacks: spec.Stacks}}
	if spec.Campus != nil {
		out = append(out, spec.Campus.Deployments...)
	}
	return out
}

// layerErr labels an error from layer k with the campus deployment it came
// from; the top-level layer keeps the bare error.
func layerErr(k int, err error) error {
	if k == 0 {
		return err
	}
	return fmt.Errorf("campus deployment %d: %w", k-1, err)
}

// hostOptions folds a layer's construction-time host options:
// construction-only schemes (kernel policies, address defense) act while
// the hosts are being assembled; everything else deploys afterwards.
func hostOptions(d LANDeployment) ([]stack.Option, error) {
	var opts []stack.Option
	for _, s := range d.Schemes {
		o, err := registry.HostOptions(s.Name, s.Params)
		if err != nil {
			return nil, err
		}
		opts = append(opts, o...)
	}
	for _, st := range d.Stacks {
		o, err := registry.StackHostOptions(st)
		if err != nil {
			return nil, err
		}
		opts = append(opts, o...)
	}
	return opts, nil
}

// Deployment is a run's sites and what the plane installed onto them:
// every instance that folds incidents (for incident accounting) and every
// stack instance (for correlation accounting). A WithHook hook reads it.
type Deployment struct {
	Sites  []*labnet.Site
	Guards []*registry.Instance
	Stacks []*registry.StackInstance
}

// note records a deployed instance when it folds incidents.
func (d *Deployment) note(inst *registry.Instance) {
	if inst.FoldsIncidents() {
		d.Guards = append(d.Guards, inst)
	}
}

// runsScheme reports whether the spec deploys the named scheme on segment
// li, standalone or as a stack member.
func (spec *Spec) runsScheme(li int, name string) bool {
	n := 1
	if spec.Campus != nil {
		n = spec.Campus.lans()
	}
	for _, layer := range spec.layers() {
		lans, _ := parseLANSelector(layer.LANs, n) // Validate vouched
		if !slices.Contains(lans, li) {
			continue
		}
		for _, s := range layer.Schemes {
			if s.Name == name {
				return true
			}
		}
		for _, st := range layer.Stacks {
			for _, sel := range st.Schemes {
				if sel.Name == name {
					return true
				}
			}
		}
	}
	return false
}

// deployOnto installs a layer's schemes and stacks onto every site it
// selects, in spec order, schemes before stacks. Construction-only schemes
// are skipped here — their host options were applied while the topology
// was assembled.
func deployOnto(sites []*labnet.Site, layer LANDeployment, d *Deployment) error {
	lans, _ := parseLANSelector(layer.LANs, len(sites)) // Validate vouched
	for _, s := range layer.Schemes {
		f, ok := registry.Lookup(s.Name)
		if !ok {
			return registry.UnknownSchemeError(s.Name)
		}
		if f.ConstructionOnly() {
			continue
		}
		for _, li := range lans {
			inst, err := registry.Deploy(sites[li].Env(), s.Name, s.Params)
			if err != nil {
				return siteErr(sites[li], err)
			}
			d.note(inst)
		}
	}
	for _, st := range layer.Stacks {
		for _, li := range lans {
			si, err := registry.DeployStack(sites[li].Env(), st)
			if err != nil {
				return siteErr(sites[li], err)
			}
			d.Stacks = append(d.Stacks, si)
			for _, m := range si.Members {
				d.note(m)
			}
		}
	}
	return nil
}

// siteErr labels a deployment error with its segment on routed topologies;
// a flat LAN's single site (no router) keeps the bare error.
func siteErr(s *labnet.Site, err error) error {
	if s.Router == nil {
		return err
	}
	return fmt.Errorf("lan %d: %w", s.Index, err)
}

// guardResults sums incident accounting over every deployed guard.
func (d *Deployment) guardResults(res *Result) {
	for _, g := range d.Guards {
		for _, inc := range g.Incidents() {
			res.GuardIncidents++
			if inc.Confirmed {
				res.GuardConfirmed++
			}
		}
	}
}

// stackResults aggregates correlation stats by stack label — a campus
// deploys one instance per segment, and the campus-wide answer is their
// sum.
func (d *Deployment) stackResults() []StackResult {
	idx := make(map[string]int)
	var out []StackResult
	for _, si := range d.Stacks {
		cs := si.Correlation()
		label := si.Stack.Label()
		j, ok := idx[label]
		if !ok {
			j = len(out)
			idx[label] = j
			out = append(out, StackResult{Stack: label})
		}
		out[j].Forwarded += cs.Forwarded
		out[j].Suppressed += cs.Suppressed
		out[j].CrossScheme += cs.CrossScheme
	}
	return out
}
