// Package faults is the deterministic fault-injection subsystem: a
// JSON-loadable plan of timed fault events, a set of injector primitives
// (Gilbert-Elliott burst loss, packet duplication, bounded reordering,
// link flaps, host churn, switch CAM flushes, DHCP-server outages), and an
// applier that arms them against a simulated LAN through hook points the
// defense schemes cannot see (the netsim link transmit path, the switch CAM,
// the host stack's power-cycle path, and the DHCP server's service state).
//
// The paper's analysis is largely about failure modes — a passive monitor
// drowning in alerts under churn, an active prober misreading an offline
// host as a spoofer, DAI going blind behind a stale snooping table. This
// package turns those qualitative claims into measurable conditions: the
// robustness experiments (Table 8, Figure 8) sweep a plan's intensity and
// plot each scheme's coverage, false positives, and time-to-detect.
//
// Determinism invariants:
//
//   - Every injector draws from its own random stream, derived from the
//     scheduler seed and the event's position in the plan
//     (sim.Scheduler.DeriveRand). Two injectors never share a stream, and
//     none touches the shared simulation stream, so arming a plan cannot
//     perturb any other stochastic choice in the run — and a disabled plan
//     is byte-for-byte invisible.
//   - All state lives inside the trial's own world (scheduler, links,
//     hosts); nothing is shared across trials, so results are identical at
//     any eval worker-pool width.
//   - Events fire at virtual instants on the trial's scheduler; wall-clock
//     time never enters.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Event types understood by Apply.
const (
	// TypeGilbertElliott arms two-state Markov burst loss on the targeted
	// links for the event window. Fields: PGoodBad, PBadGood, LossGood,
	// LossBad.
	TypeGilbertElliott = "gilbert-elliott"
	// TypeDuplicate delivers an extra copy of a frame with probability Prob;
	// the copy lags the original by up to MaxDelayMillis.
	TypeDuplicate = "duplicate"
	// TypeReorder delays a frame by up to MaxDelayMillis with probability
	// Prob, pushing it behind later traffic (bounded reordering).
	TypeReorder = "reorder"
	// TypeLinkFlap takes the targeted links administratively down for the
	// event window; both directions drop everything.
	TypeLinkFlap = "link-flap"
	// TypeHostChurn powers the targeted host off for the event window; on
	// recovery its ARP cache is wiped and it re-announces (stack.Host.Restart).
	TypeHostChurn = "host-churn"
	// TypeCAMFlush clears the switch's learned station table at AtSeconds.
	TypeCAMFlush = "cam-flush"
	// TypeDHCPOutage takes every DHCP server in the environment out of
	// service for the event window.
	TypeDHCPOutage = "dhcp-outage"
	// TypeTrunkPartition takes the selected backbone trunks down for the
	// event window: every frame offered to them is dropped at the source
	// edge. Only meaningful on routed topologies (Env.Trunks); requires a
	// positive duration.
	TypeTrunkPartition = "trunk-partition"
	// TypeRouterFlush clears the selected segments' edge-router learned ARP
	// tables at AtSeconds — the routed-campus analogue of a CAM flush.
	TypeRouterFlush = "router-flush"
)

// Types lists every fault type Apply understands, in documentation order.
func Types() []string {
	return []string{
		TypeGilbertElliott, TypeDuplicate, TypeReorder, TypeLinkFlap,
		TypeHostChurn, TypeCAMFlush, TypeDHCPOutage,
		TypeTrunkPartition, TypeRouterFlush,
	}
}

// Plan is a schedule of fault events, loadable from JSON (a scenario file's
// "faults" section). The zero plan is valid and injects nothing.
type Plan struct {
	Events []Event `json:"events"`
}

// Event is one scheduled fault. Which fields matter depends on Type; Apply
// rejects plans whose events are incomplete or target nothing.
type Event struct {
	// Type selects the injector (the Type* constants).
	Type string `json:"type"`
	// AtSeconds is when the fault begins.
	AtSeconds float64 `json:"atSeconds"`
	// DurationSeconds bounds windowed faults. Zero means "until the end of
	// the run" for impairment windows and DHCP outages; link flaps and host
	// churn require an explicit positive duration (a flap that never ends is
	// a misconfiguration, not a fault model).
	DurationSeconds float64 `json:"durationSeconds,omitempty"`
	// LinkAt targets links on any topology: "lan:3/link:7", "lan:*/link:0",
	// "lan:2/link:*", or "lan:*". A flat LAN is the single-site topology
	// lan 0, so its link 3 is "lan:0/link:3". Empty targets every link in
	// the environment. Ignored by host/switch/DHCP faults.
	LinkAt string `json:"linkAt,omitempty"`
	// HostAt targets one station for host-churn: "lan:3/host:2", or
	// "lan:*/host:2" for that index on every segment.
	HostAt string `json:"hostAt,omitempty"`
	// Trunk selects backbone edges for trunk-partition: "trunk:2-5",
	// "trunk:2-*", "trunk:*-5", or "trunk:*". Empty partitions every edge.
	Trunk string `json:"trunk,omitempty"`
	// Lan scopes cam-flush and router-flush to segments: "lan:3" or
	// "lan:*". Empty targets every segment that has the flushed object.
	Lan string `json:"lan,omitempty"`

	// Gilbert-Elliott channel parameters: per-frame transition
	// probabilities between the Good and Bad states and the loss
	// probability inside each.
	PGoodBad float64 `json:"pGoodBad,omitempty"`
	PBadGood float64 `json:"pBadGood,omitempty"`
	LossGood float64 `json:"lossGood,omitempty"`
	LossBad  float64 `json:"lossBad,omitempty"`

	// Prob is the per-frame injection probability for duplicate/reorder.
	Prob float64 `json:"prob,omitempty"`
	// MaxDelayMillis bounds the extra delay a duplicate or reordered frame
	// receives (default 1ms).
	MaxDelayMillis float64 `json:"maxDelayMillis,omitempty"`
}

// at returns the event's start instant.
func (e *Event) at() time.Duration {
	return time.Duration(e.AtSeconds * float64(time.Second))
}

// window returns the event's end instant and whether one was given.
func (e *Event) window() (time.Duration, bool) {
	if e.DurationSeconds <= 0 {
		return 0, false
	}
	return e.at() + time.Duration(e.DurationSeconds*float64(time.Second)), true
}

// maxDelay returns the bounded extra delay for duplicate/reorder events.
func (e *Event) maxDelay() time.Duration {
	if e.MaxDelayMillis <= 0 {
		return time.Millisecond
	}
	return time.Duration(e.MaxDelayMillis * float64(time.Millisecond))
}

// Load parses a Plan from JSON, rejecting unknown fields so scenario typos
// fail loudly instead of silently injecting nothing.
func Load(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("parse fault plan: %w", err)
	}
	return &p, nil
}

// validate checks one event's shape independent of any environment.
func (e *Event) validate(i int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("fault event %d (%s): %s", i, e.Type, fmt.Sprintf(format, args...))
	}
	if e.AtSeconds < 0 {
		return fail("negative atSeconds")
	}
	if e.DurationSeconds < 0 {
		return fail("negative durationSeconds")
	}
	prob := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fail("%s = %v outside [0, 1]", name, v)
		}
		return nil
	}
	if e.LinkAt != "" {
		if _, err := parseLinkAddr(e.LinkAt); err != nil {
			return fail("%v", err)
		}
	}
	if e.HostAt != "" {
		if _, err := parseHostAddr(e.HostAt); err != nil {
			return fail("%v", err)
		}
	}
	if e.Trunk != "" {
		if _, err := parseTrunkAddr(e.Trunk); err != nil {
			return fail("%v", err)
		}
	}
	if e.Lan != "" {
		if _, err := parseLanAddr(e.Lan); err != nil {
			return fail("%v", err)
		}
	}
	switch e.Type {
	case TypeGilbertElliott:
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"pGoodBad", e.PGoodBad}, {"pBadGood", e.PBadGood},
			{"lossGood", e.LossGood}, {"lossBad", e.LossBad},
		} {
			if err := prob(p.name, p.v); err != nil {
				return err
			}
		}
		if e.PGoodBad == 0 && e.LossGood == 0 {
			return fail("channel can never lose a frame (pGoodBad and lossGood both zero)")
		}
	case TypeDuplicate, TypeReorder:
		if err := prob("prob", e.Prob); err != nil {
			return err
		}
		if e.Prob == 0 {
			return fail("prob is zero; the event would never fire")
		}
	case TypeLinkFlap, TypeHostChurn, TypeTrunkPartition:
		if e.DurationSeconds <= 0 {
			return fail("requires a positive durationSeconds")
		}
		if e.Type == TypeHostChurn && e.HostAt == "" {
			return fail("requires a host index (hostAt)")
		}
	case TypeCAMFlush, TypeDHCPOutage, TypeRouterFlush:
		// No extra fields.
	default:
		return fmt.Errorf("fault event %d: unknown type %q (valid types: %s)",
			i, e.Type, strings.Join(Types(), ", "))
	}
	return nil
}
