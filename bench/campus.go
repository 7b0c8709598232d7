package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/scenario"
)

// campusSpec is the campus-1e6 scenario: 64 LANs × 15625 hosts on 2 shard
// workers, dai+arpwatch on LANs 0–7 and arpwatch+snort-like on 8–63, a
// MITM inside LAN 3, and the figure10-style fault script.
//
//go:embed workloads/campus-1e6.json
var campusSpec []byte

const campusHosts = 1_000_000

// campus runs the scenario front end once per operation — scenario.Load of
// the spec, then scenario.Run — with the seed cycling over ten values.
type campus struct {
	seeds   [10]int64
	digests map[int64][32]byte
}

func newCampus(seed int64, _ string) (workload, error) {
	return &campus{seeds: opSeeds(seed), digests: map[int64][32]byte{}}, nil
}

func (c *campus) run(i int, sp *spans) (opResult, error) {
	seed := c.seeds[i%len(c.seeds)]
	var spec *scenario.Spec
	err := sp.do("scenario.load", func() (err error) {
		spec, err = scenario.Load(bytes.NewReader(campusSpec))
		return err
	})
	if err != nil {
		return opResult{}, err
	}
	spec.Seed = seed
	var res *scenario.Result
	if err := sp.do("scenario.run", func() (err error) {
		res, err = scenario.Run(spec)
		return err
	}); err != nil {
		return opResult{}, err
	}

	m := map[string]float64{"labnet.hosts": float64(res.Campus.Hosts)}
	snapshotCounts(res.Telemetry, m)
	raised, suppressed := 0, 0
	for _, st := range res.StackStats {
		raised += st.Forwarded + st.Suppressed
		suppressed += st.Suppressed
	}
	alertCounts(m, raised, suppressed)
	if res.FaultStats != nil {
		m["faults.injected"] = float64(res.FaultStats.Total())
	}
	atkLAN := spec.Campus.AttackerLAN
	check := func() error {
		if res.Campus.Hosts != campusHosts {
			return fmt.Errorf("seed %d: campus ran %d hosts, want %d", seed, res.Campus.Hosts, campusHosts)
		}
		if !detectedOn(res, atkLAN) {
			return fmt.Errorf("seed %d: no alert on the attacker's LAN %d (first alerts %q)", seed, atkLAN, res.FirstAlerts)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		return checkDigest(c.digests, seed, sha256.Sum256(raw))
	}
	return opResult{frames: float64(res.Campus.FabricFrames), counts: m, check: check}, nil
}

// detectedOn reports whether a scheme's first alert fired on LAN lan about
// that LAN's own addresses (10.<lan>.0.0/16).
func detectedOn(res *scenario.Result, lan int) bool {
	prefix := fmt.Sprintf("lan%d ", lan)
	addr := fmt.Sprintf(" ip=10.%d.", lan)
	for _, a := range res.FirstAlerts {
		if strings.HasPrefix(a, prefix) && strings.Contains(a, addr) {
			return true
		}
	}
	return false
}
