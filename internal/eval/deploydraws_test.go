package eval

import (
	"testing"
	"time"

	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
)

// TestDeployDrawsNothingWarmUpDraws pins the draw facts the detection
// trials rely on: deploying any compared scheme or Table 9 deployment takes
// nothing from the scheduler's RNG, so the attack-phase draw may come
// before or after deployment, while warm-up (cache seeding resolves over
// jittered links) does draw, so the phase draw must keep its place
// relative to it.
func TestDeployDrawsNothingWarmUpDraws(t *testing.T) {
	const seed = 42
	next := func(prepare func(l *labnet.LAN)) int64 {
		l := newAttackLAN(labnet.Config{Seed: seed, Hosts: 8, LinkJitter: 200 * time.Microsecond})
		defer l.Recycle()
		prepare(l)
		return l.Sched.Rand().Int63()
	}
	untouched := next(func(*labnet.LAN) {})

	var deployments []registry.Stack
	for _, st := range table9Stacks() {
		deployments = append(deployments, st)
		for _, sel := range st.Schemes {
			deployments = append(deployments, registry.Stack{Schemes: []registry.Selection{sel}})
		}
	}
	for _, scheme := range DetectionSchemes() {
		got := next(func(l *labnet.LAN) {
			if _, err := registry.Deploy(l.Env(schemes.NewSink(), nil), scheme, detectionParams[scheme]); err != nil {
				t.Fatal(err)
			}
		})
		if got != untouched {
			t.Errorf("deploying %s drew from the scheduler's RNG", scheme)
		}
	}
	for _, st := range deployments {
		got := next(func(l *labnet.LAN) {
			if _, err := registry.DeployStack(l.Env(schemes.NewSink(), nil), st); err != nil {
				t.Fatal(err)
			}
		})
		if got != untouched {
			t.Errorf("deploying %s drew from the scheduler's RNG", st.Label())
		}
	}
	if next(warmAttackLAN) == untouched {
		t.Error("warm-up drew nothing from the scheduler's RNG; the phase draw's place relative to it no longer matters")
	}
}
