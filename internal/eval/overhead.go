package eval

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
	"repro/internal/stats"
)

// resolutionCost is what one scheme charges per address resolution.
type resolutionCost struct {
	wireBytes float64       // control-plane octets on the wire (ingress)
	latency   time.Duration // request→usable binding
}

// overheadParams: the resolution-cost trials convert only the regular
// stations to the secured protocols (the monitor stays plain, uninvolved),
// probe new stations actively, and leave everything else at defaults.
var overheadParams = map[string]registry.P{
	registry.NameSARP:        {"includeMonitor": false},
	registry.NameTARP:        {"includeMonitor": false},
	registry.NameActiveProbe: {"seedGateway": false, "verifyNewStations": true},
}

// measureResolutions runs `rounds` cold resolutions of the gateway by the
// victim under one scheme and returns the mean per-resolution cost.
func measureResolutions(scheme string, rounds int) resolutionCost {
	l := labnet.New(labnet.Config{Hosts: 4, WithAttacker: false, WithMonitor: true})
	defer l.Recycle()
	gw, victim := l.Gateway(), l.Victim()
	sink := schemes.NewSink()

	schemeResolve := victim.Resolve
	if scheme != "plain-arp" {
		inst, err := registry.Deploy(l.Env(sink, nil), scheme, overheadParams[scheme])
		if err != nil {
			panic(fmt.Sprintf("eval: deploy %s: %v", scheme, err)) // a bug, not a result
		}
		schemeResolve = inst.ResolverFor(victim)
	}

	controlBytes := func() float64 {
		st := l.Switch.Stats()
		return float64(st.BytesByType[frame.TypeARP] +
			st.BytesByType[frame.TypeSARP] + st.BytesByType[frame.TypeTARP])
	}

	var latencies []float64
	resolve := func(done func()) {
		start := l.Sched.Now()
		cb := func(_ ethaddr.MAC, ok bool) {
			if ok {
				latencies = append(latencies, float64(l.Sched.Now()-start))
			}
			done()
		}
		schemeResolve(gw.IP(), cb)
	}

	before := controlBytes()
	var loop func(i int)
	loop = func(i int) {
		if i >= rounds {
			return
		}
		resolve(func() {
			// Cold next round: drop the binding, wait for quiet.
			victim.Cache().Delete(gw.IP())
			l.Sched.After(2*time.Second, func() { loop(i + 1) })
		})
	}
	loop(0)
	_ = l.Run(time.Duration(rounds+2) * 5 * time.Second)

	cost := resolutionCost{}
	if n := len(latencies); n > 0 {
		cost.wireBytes = (controlBytes() - before) / float64(n)
		cost.latency = time.Duration(stats.Mean(latencies))
	}
	return cost
}

// CryptoCosts are host-CPU measurements of the real signature operations
// the protocol-replacing schemes perform.
type CryptoCosts struct {
	SignPerOp   time.Duration
	VerifyPerOp time.Duration
}

// MeasureCryptoCosts times genuine ECDSA P-256 signing and verification on
// this machine (the figures the paper-era prototypes report for DSA are
// orders of magnitude larger; the comparison column documents today's
// cost).
func MeasureCryptoCosts(iters int) (CryptoCosts, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return CryptoCosts{}, fmt.Errorf("generate key: %w", err)
	}
	digest := sha256.Sum256([]byte("arp reply payload"))

	sig, err := ecdsa.SignASN1(rand.Reader, priv, digest[:])
	if err != nil {
		return CryptoCosts{}, fmt.Errorf("sign: %w", err)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := ecdsa.SignASN1(rand.Reader, priv, digest[:]); err != nil {
			return CryptoCosts{}, fmt.Errorf("sign: %w", err)
		}
	}
	signPer := time.Since(start) / time.Duration(iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		if !ecdsa.VerifyASN1(&priv.PublicKey, digest[:], sig) {
			return CryptoCosts{}, fmt.Errorf("verification failed")
		}
	}
	verifyPer := time.Since(start) / time.Duration(iters)
	return CryptoCosts{SignPerOp: signPer, VerifyPerOp: verifyPer}, nil
}

// Table4Overhead measures the per-resolution cost of each resolution
// scheme: wire bytes, end-to-end latency, and (for the crypto schemes) the
// measured CPU cost of their signature operations.
//
// Expected shape: plain < tarp < s-arp on compute; middleware pays its
// verification window in latency but stays near plain in bytes; crypto
// schemes pay per-message size.
func Table4Overhead(rounds int) (*Table, error) {
	crypto, err := MeasureCryptoCosts(50)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Table 4",
		Title:   fmt.Sprintf("Per-resolution overhead (mean over %d cold resolutions, 4-host LAN)", rounds),
		Columns: []string{"scheme", "wire bytes/resolution", "latency", "sender CPU/op", "receiver CPU/op"},
		Notes: []string{
			fmt.Sprintf("CPU figures measured on this machine: ECDSA P-256 sign %v, verify %v", crypto.SignPerOp, crypto.VerifyPerOp),
			"latency includes the schemes' modelled processing delays; middleware includes its quarantine window",
		},
	}
	schemesUnderTest := []struct {
		name              string
		senderCPU, rcvCPU string
	}{
		{"plain-arp", "~0", "~0"},
		{"middleware", "~0", "~0"},
		{"active-probe", "~0", "~0"},
		{"tarp", "~0 (ticket reuse)", crypto.VerifyPerOp.String()},
		{"s-arp", crypto.SignPerOp.String(), crypto.VerifyPerOp.String()},
	}
	names := make([]string, len(schemesUnderTest))
	for i, s := range schemesUnderTest {
		names[i] = s.name
	}
	costs := Map(names, func(name string) resolutionCost {
		return measureResolutions(name, rounds)
	})
	for i, s := range schemesUnderTest {
		t.AddRow(s.name,
			fmt.Sprintf("%.0f", costs[i].wireBytes),
			costs[i].latency.Round(time.Microsecond).String(),
			s.senderCPU, s.rcvCPU,
		)
	}
	return t, nil
}

// Figure3Scaling measures steady-state control-plane load (egress octets
// per second, all ARP-family EtherTypes) against LAN size for each
// resolution scheme under a uniform re-resolution workload.
//
// Expected shape: every scheme grows superlinearly with n (broadcast
// requests replicate to n−1 ports); the crypto schemes sit a constant
// factor higher from message size; middleware adds its probe traffic.
func Figure3Scaling(sizes []int, horizon time.Duration) *Figure {
	f := &Figure{
		ID:     "Figure 3",
		Title:  "Control-plane load vs LAN size (each host re-resolves a peer every 10s, 8s cache TTL)",
		XLabel: "hosts",
		YLabel: "control_bytes_per_sec",
		XFmt:   "%.0f",
		YFmt:   "%.0f",
	}
	type cell struct {
		scheme string
		n      int
	}
	var cells []cell
	for _, scheme := range []string{"plain-arp", "middleware", "s-arp", "tarp"} {
		for _, n := range sizes {
			cells = append(cells, cell{scheme, n})
		}
	}
	loads := Map(cells, func(c cell) float64 {
		return measureScalingPoint(c.scheme, c.n, horizon)
	})
	for i, c := range cells {
		f.AddPoint(c.scheme, float64(c.n), loads[i])
	}
	return f
}

// measureScalingPoint runs one (scheme, size) cell and returns egress
// control bytes per second.
func measureScalingPoint(scheme string, n int, horizon time.Duration) float64 {
	l := labnet.New(labnet.Config{
		Hosts:        n,
		WithAttacker: false,
		WithMonitor:  false,
		CacheTTL:     8 * time.Second,
	})
	defer l.Recycle()
	sink := schemes.NewSink()

	// Every station runs the scheme here — scaling is the whole question.
	inst := &registry.Instance{}
	if scheme != "plain-arp" {
		params := registry.P{}
		if scheme == registry.NameMiddleware {
			params["scope"] = "all"
		}
		var err error
		inst, err = registry.Deploy(l.Env(sink, nil), scheme, params)
		if err != nil {
			panic(fmt.Sprintf("eval: deploy %s: %v", scheme, err)) // a bug, not a result
		}
	}

	// Workload: host i re-resolves host (i+1) mod n every 10s; the 8s TTL
	// guarantees each attempt is cold.
	for i, h := range l.Hosts {
		h := h
		peer := l.Hosts[(i+1)%n]
		resolve := inst.ResolverFor(h)
		l.Sched.Every(10*time.Second, func() {
			resolve(peer.IP(), nil)
		})
	}
	_ = l.Run(horizon)

	st := l.Switch.Stats()
	total := st.BytesOutByType[frame.TypeARP] +
		st.BytesOutByType[frame.TypeSARP] + st.BytesOutByType[frame.TypeTARP]
	return float64(total) / horizon.Seconds()
}
