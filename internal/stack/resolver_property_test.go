package stack

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/arppkt"
	"repro/internal/ethaddr"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Resolver op kinds.
const (
	resStart    = iota // Resolve a pool address
	resComplete        // a reply from the address arrives
	resFail            // the resolution's last try expires
	resRestart         // the host power-cycles
)

type resolverOp struct {
	kind  int
	ipIdx int
}

// outcome is one waiter notification.
type outcome struct {
	ip ethaddr.IPv4
	ok bool
}

// resolverModel is the differential reference for the resolver's pending
// table: the in-flight addresses in start order and each one's waiter count.
type resolverModel struct {
	inflight []ethaddr.IPv4
	waiters  map[ethaddr.IPv4]int
	log      []outcome // notifications the resolver must have made so far
}

// finish ends ip's resolution in the model, if in flight, notifying its
// waiters with ok.
func (m *resolverModel) finish(ip ethaddr.IPv4, ok bool) {
	i := slices.Index(m.inflight, ip)
	if i < 0 {
		return
	}
	m.inflight = slices.Delete(m.inflight, i, i+1)
	for ; m.waiters[ip] > 0; m.waiters[ip]-- {
		m.log = append(m.log, outcome{ip, ok})
	}
}

// runResolverOps drives ops against a host whose cache never hits (TTL 0)
// and whose scheduler never runs, so only the ops move resolutions, and
// checks the pending table against the model after every op.
func runResolverOps(t *testing.T, ops []resolverOp) {
	t.Helper()
	s := sim.NewScheduler(1)
	h := NewHost(s, "h", netsim.NewNIC(s, ethaddr.MAC{0x02, 0, 0, 0, 0, 1}), ethaddr.IPv4{192, 168, 0, 1},
		WithCacheTTL(0), WithResolveRetry(1, time.Second))
	m := &resolverModel{waiters: make(map[ethaddr.IPv4]int)}
	var log []outcome
	for step, op := range ops {
		ip := poolIP(op.ipIdx)
		switch op.kind {
		case resStart:
			h.Resolve(ip, func(_ ethaddr.MAC, ok bool) { log = append(log, outcome{ip, ok}) })
			if !slices.Contains(m.inflight, ip) {
				m.inflight = append(m.inflight, ip)
			}
			m.waiters[ip]++
		case resComplete:
			h.ProcessARP(arppkt.NewReply(poolMAC(uint8(op.ipIdx)), ip, h.MAC(), h.IP()))
			m.finish(ip, true)
		case resFail:
			// Find the resolution by scanning, independently of the index
			// under test, and fire its last retry.
			for _, pd := range h.pendings {
				if pd != nil && pd.ip == ip {
					pd.Run()
					break
				}
			}
			m.finish(ip, false)
		case resRestart:
			h.Restart()
			m.inflight = m.inflight[:0]
			clear(m.waiters)
		}
		checkResolver(t, step, h, m, log)
	}
}

func checkResolver(t *testing.T, step int, h *Host, m *resolverModel, log []outcome) {
	t.Helper()
	var live []ethaddr.IPv4
	for _, pd := range h.pendings {
		if pd != nil {
			live = append(live, pd.ip)
		}
	}
	if !slices.Equal(live, m.inflight) {
		t.Fatalf("step %d: in flight %v, model %v", step, live, m.inflight)
	}
	if (len(h.pendings) > 0) != (len(m.inflight) > 0) {
		t.Fatalf("step %d: %d pending slots for %d resolutions", step, len(h.pendings), len(m.inflight))
	}
	if h.pendingIndex.Len() != len(m.inflight) {
		t.Fatalf("step %d: index holds %d keys, model %d", step, h.pendingIndex.Len(), len(m.inflight))
	}
	for i := 0; i < poolSize; i++ {
		ip := poolIP(i)
		j := h.pendingIndex.Get(ipKey(ip))
		if (j >= 0) != slices.Contains(m.inflight, ip) {
			t.Fatalf("step %d: index has %s at %d, model in flight %v", step, ip, j, m.inflight)
		}
		if j >= 0 && (h.pendings[j] == nil || h.pendings[j].ip != ip) {
			t.Fatalf("step %d: index points %s at slot %d holding another resolution", step, ip, j)
		}
	}
	if !slices.Equal(log, m.log) {
		t.Fatalf("step %d: waiters notified %v, model %v", step, log, m.log)
	}
}

// TestPropertyResolverMatchesMapModel: random starts, completions,
// failures, and restarts over the address pool (colliding keys included)
// leave the pending table — membership, start order, index positions, and
// waiter notifications — exactly as the model predicts. Start-heavy runs
// hold hundreds of resolutions at once, so hole compaction is exercised.
func TestPropertyResolverMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		startShare := 30 + 10*int(seed%4) // 30–60% starts
		ops := make([]resolverOp, 2000)
		for i := range ops {
			op := resolverOp{ipIdx: r.Intn(poolSize)}
			if r.Intn(4) == 0 {
				op.ipIdx = poolSpread + r.Intn(poolColliding)
			}
			switch w := r.Intn(1000); {
			case w < 10*startShare:
				op.kind = resStart
			case w < 995:
				op.kind = resComplete + w%2 // complete or fail
			default:
				op.kind = resRestart
			}
			ops[i] = op
		}
		runResolverOps(t, ops)
	}
}

// TestRestartAbandonsResolutionsInStartOrder: a restart with several
// resolutions in flight finishes their spans in start order, identically
// on every run.
func TestRestartAbandonsResolutionsInStartOrder(t *testing.T) {
	targets := []string{"10.0.0.7", "10.0.0.3", "10.0.0.5"}
	for run := 0; run < 20; run++ {
		l := newTestLAN(1)
		rec := traceTestLAN(l)
		a := l.addHost("a", "02:42:ac:00:00:01", "10.0.0.1")
		for _, ip := range targets {
			a.Resolve(ethaddr.MustParseIPv4(ip), nil)
		}
		a.Restart()
		spans := resolveSpans(rec)
		if len(spans) != len(targets) {
			t.Fatalf("run %d: %d resolve spans, want %d", run, len(spans), len(targets))
		}
		for i, sp := range spans {
			if sp.Attr("outcome") != "abandoned" || sp.Attr("target") != targets[i] || sp.Attr("tries") != "1" {
				t.Fatalf("run %d: span %d = %+v, want abandoned %s after 1 try", run, i, sp.Attrs, targets[i])
			}
		}
	}
}
