package stack

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/arppkt"
	"repro/internal/denseidx"
	"repro/internal/ethaddr"
	"repro/internal/sim"
)

// Cache op kinds. The first four are dynamic traffic and the clock; the
// rest are administrative actions.
const (
	opReply uint8 = iota
	opRequest
	opGratuitous
	opAdvance
	opDelete
	opFlush
	opSetStatic
	numCacheOps
)

// cacheOp is one randomized action against a cache.
type cacheOp struct {
	kind      uint8
	ipIdx     uint16 // into the address pool, see poolIP
	macIdx    uint8
	solicited bool
	advance   uint16 // ms
}

// Generate implements quick.Generator for sequences of dynamic traffic and
// clock ops. Half of them hit eight hot addresses so overwrite paths are
// exercised heavily; the rest spread over the whole pool.
func (cacheOp) Generate(r *rand.Rand, _ int) reflect.Value {
	ipIdx := uint16(r.Intn(8))
	if r.Intn(2) == 0 {
		ipIdx = uint16(r.Intn(poolSize))
	}
	return reflect.ValueOf(cacheOp{
		kind:      uint8(r.Intn(int(opAdvance) + 1)),
		ipIdx:     ipIdx,
		macIdx:    uint8(r.Intn(8)),
		solicited: r.Intn(2) == 0,
		advance:   uint16(r.Intn(5000)),
	})
}

var _ quick.Generator = cacheOp{}

// The address pool: poolSpread addresses spread over 10.0.0.0/16, then
// poolColliding addresses that share one home cell in every index table
// of up to 4096 cells, so probe clusters, wrap-around, and
// backward-shift deletion all get exercised.
const (
	poolSpread    = 512
	poolColliding = 64
	poolSize      = poolSpread + poolColliding
)

// poolIP returns pool address i (mod poolSize).
func poolIP(i int) ethaddr.IPv4 {
	i %= poolSize
	if i < poolSpread {
		return ethaddr.IPv4{10, 0, byte(i / 250), byte(i%250 + 1)}
	}
	return collidingIP(i - poolSpread)
}

// collidingKeys share one home cell in every index table the property tests
// reach (pinned by denseidx's TestCollidingPoolSharesHomeCell).
var collidingKeys = denseidx.Colliding(poolColliding)

// collidingIP returns the j-th colliding address.
func collidingIP(j int) ethaddr.IPv4 {
	k := collidingKeys[j]
	return ethaddr.IPv4{byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)}
}

func poolMAC(i uint8) ethaddr.MAC {
	return ethaddr.MAC{0x02, 0x42, 0xac, 0, 0, i%8 + 1}
}

// packet builds the ARP packet of a traffic op and whether it answers an
// outstanding request.
func (op cacheOp) packet() (*arppkt.Packet, bool) {
	ip, mac := poolIP(int(op.ipIdx)), poolMAC(op.macIdx)
	switch op.kind {
	case opReply:
		return arppkt.NewReply(mac, ip, poolMAC(7), poolIP(7)), op.solicited
	case opRequest:
		return arppkt.NewRequest(mac, ip, poolIP(7)), false
	default:
		return arppkt.NewGratuitousRequest(mac, ip), false
	}
}

// applyOp drives one op against the cache, advancing virtual time through
// the scheduler. It returns the event kind of an update, 0 otherwise.
func applyOp(s *sim.Scheduler, c *Cache, op cacheOp) EventKind {
	ip := poolIP(int(op.ipIdx))
	switch op.kind {
	case opReply, opRequest, opGratuitous:
		p, solicited := op.packet()
		return c.Update(p, solicited)
	case opAdvance:
		s.After(time.Duration(op.advance)*time.Millisecond, func() {})
		_ = s.Run()
	case opDelete:
		c.Delete(ip)
	case opFlush:
		c.Flush()
	case opSetStatic:
		c.SetStatic(ip, poolMAC(op.macIdx))
	}
	return 0
}

// cacheModel is the differential reference for Cache: a plain map under
// the same update rules. It shares only the policy predicates (admit,
// mayOverwrite), which never touch storage.
type cacheModel struct {
	ttl time.Duration
	m   map[ethaddr.IPv4]Entry
}

// apply mirrors applyOp on the model at virtual time now (read after the
// cache has applied the op, so a clock advance is already visible).
func (m *cacheModel) apply(c *Cache, op cacheOp, now time.Duration) EventKind {
	ip := poolIP(int(op.ipIdx))
	switch op.kind {
	case opReply, opRequest, opGratuitous:
		p, solicited := op.packet()
		return m.update(c, p, solicited, now)
	case opDelete:
		delete(m.m, ip)
	case opFlush:
		for ip, e := range m.m {
			if !e.Static {
				delete(m.m, ip)
			}
		}
	case opSetStatic:
		m.m[ip] = Entry{MAC: poolMAC(op.macIdx), State: StateReachable, Static: true}
	}
	return 0
}

func (m *cacheModel) update(c *Cache, p *arppkt.Packet, solicited bool, now time.Duration) EventKind {
	ip, mac := p.Binding()
	if ip.IsZero() || !mac.IsUnicast() {
		return EventRejected
	}
	prior, ok := m.m[ip]
	live := ok && (prior.Static || prior.Expires > now)
	if live && prior.Static || !c.admit(p, solicited) {
		return EventRejected
	}
	fresh := Entry{MAC: mac, State: StateReachable, Expires: now + m.ttl}
	switch {
	case !live:
		m.m[ip] = fresh
		return EventCreated
	case prior.MAC == mac:
		m.m[ip] = fresh
		return EventRefreshed
	case c.mayOverwrite(p):
		m.m[ip] = fresh
		return EventChanged
	default:
		return EventRejected
	}
}

// checkCache compares every read of the cache with the model: Get and
// Lookup for each pool address, then Len and Snapshot.
func checkCache(t testing.TB, step int, c *Cache, m *cacheModel, now time.Duration) {
	t.Helper()
	if c.index.Len() != len(c.slots) {
		t.Fatalf("step %d: index holds %d keys for %d slots", step, c.index.Len(), len(c.slots))
	}
	live := 0
	for i := 0; i < poolSize; i++ {
		ip := poolIP(i)
		want, present := m.m[ip]
		if got, ok := c.Get(ip); ok != present || got != want {
			t.Fatalf("step %d: Get(%s) = %+v %v, model %+v %v", step, ip, got, ok, want, present)
		}
		wantLive := present && (want.Static || want.Expires > now)
		if mac, ok := c.Lookup(ip); ok != wantLive || ok && mac != want.MAC {
			t.Fatalf("step %d: Lookup(%s) = %s %v, model %s %v", step, ip, mac, ok, want.MAC, wantLive)
		}
		if wantLive {
			live++
		}
	}
	if n := c.Len(); n != live {
		t.Fatalf("step %d: Len = %d, model %d", step, n, live)
	}
	snap := c.Snapshot()
	if len(snap) != live {
		t.Fatalf("step %d: Snapshot has %d entries, model %d", step, len(snap), live)
	}
	for ip, e := range snap {
		if e != m.m[ip] {
			t.Fatalf("step %d: Snapshot[%s] = %+v, model %+v", step, ip, e, m.m[ip])
		}
	}
}

// runCacheOps drives ops against a fresh cache and the map model in
// lockstep, checking every read after every op. It returns the largest
// number of slots the cache held.
func runCacheOps(t testing.TB, policy Policy, ttl time.Duration, ops []cacheOp) int {
	t.Helper()
	s := sim.NewScheduler(1)
	c := NewCache(s, policy, ttl)
	m := &cacheModel{ttl: ttl, m: make(map[ethaddr.IPv4]Entry)}
	peak := 0
	for step, op := range ops {
		got := applyOp(s, c, op)
		if want := m.apply(c, op, s.Now()); got != want {
			t.Fatalf("step %d: %+v gave %v, model %v", step, op, got, want)
		}
		checkCache(t, step, c, m, s.Now())
		peak = max(peak, len(c.slots))
	}
	return peak
}

var (
	modelPolicies = []Policy{PolicyNaive, PolicyReplyOnly, PolicyNoOverwrite, PolicySolicitedOnly}
	modelTTLs     = []time.Duration{time.Second, time.Minute, time.Hour}
)

// maxFuzzOps caps a fuzz input's op stream: every op re-reads the whole
// pool, so longer streams only slow the fuzzer down.
const maxFuzzOps = 512

// decodeCacheOps reads a fuzz input: a two-byte header picks the policy
// and TTL, then every four bytes are one op — kind and solicited flag,
// a big-endian pool index, and a MAC index that doubles as the clock
// advance in 40 ms steps.
func decodeCacheOps(data []byte) (Policy, time.Duration, []cacheOp) {
	if len(data) < 2 {
		return PolicyNaive, time.Minute, nil
	}
	policy := modelPolicies[int(data[0])%len(modelPolicies)]
	ttl := modelTTLs[int(data[1])%len(modelTTLs)]
	var ops []cacheOp
	for data = data[2:]; len(data) >= 4 && len(ops) < maxFuzzOps; data = data[4:] {
		ops = append(ops, cacheOp{
			kind:      data[0] % numCacheOps,
			solicited: data[0]&0x80 != 0,
			ipIdx:     (uint16(data[1])<<8 | uint16(data[2])) % poolSize,
			macIdx:    data[3],
			advance:   uint16(data[3]) * 40,
		})
	}
	return policy, ttl, ops
}

// FuzzCacheOps runs arbitrary op streams through the differential check.
// The seed corpus lives in testdata/fuzz/FuzzCacheOps.
func FuzzCacheOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		policy, ttl, ops := decodeCacheOps(data)
		runCacheOps(t, policy, ttl, ops)
	})
}

// TestPropertyCacheMatchesMapModel: under every policy and a mix of TTLs,
// long random histories of traffic, expiry, Delete, Flush, and SetStatic
// leave the cache reading exactly like a plain map. Flush-free runs grow
// the cache past several index doublings.
func TestPropertyCacheMatchesMapModel(t *testing.T) {
	grown := 0
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]cacheOp, 1500)
		for i := range ops {
			op := cacheOp{
				ipIdx:     uint16(r.Intn(poolSize)),
				macIdx:    uint8(r.Intn(8)),
				solicited: r.Intn(2) == 0,
				advance:   uint16(r.Intn(10000)),
			}
			if r.Intn(4) == 0 { // crowd the colliding cluster
				op.ipIdx = uint16(poolSpread + r.Intn(poolColliding))
			}
			switch w := r.Intn(100); {
			case w < 70:
				op.kind = uint8(w % 3) // reply, request, gratuitous
			case w < 75:
				op.kind = opAdvance
			case w < 87:
				op.kind = opDelete
			case w < 99:
				op.kind = opSetStatic
			case seed%2 == 1:
				op.kind = opFlush
			}
			ops[i] = op
		}
		policy := modelPolicies[seed%int64(len(modelPolicies))]
		ttl := modelTTLs[seed%int64(len(modelTTLs))]
		if peak := runCacheOps(t, policy, ttl, ops); peak >= 256 {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("no run grew the cache to 256 entries; the op mix no longer exercises index growth")
	}
}

// TestPropertyStaticEntriesAreInvariant: no sequence of dynamic updates may
// ever move a static binding, under any policy.
func TestPropertyStaticEntriesAreInvariant(t *testing.T) {
	f := func(ops []cacheOp, policyIdx uint8) bool {
		s := sim.NewScheduler(1)
		c := NewCache(s, modelPolicies[int(policyIdx)%len(modelPolicies)], time.Second)
		pinnedIP := poolIP(3)
		pinnedMAC := ethaddr.MustParseMAC("02:42:ac:00:00:99")
		c.SetStatic(pinnedIP, pinnedMAC)
		for _, op := range ops {
			applyOp(s, c, op)
		}
		mac, ok := c.Lookup(pinnedIP)
		return ok && mac == pinnedMAC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLookupReflectsAnAcceptedUpdate: any live binding returned by
// Lookup must carry a MAC that some prior accepted update installed for
// that IP (never an invented or crossed value).
func TestPropertyLookupReflectsAnAcceptedUpdate(t *testing.T) {
	f := func(ops []cacheOp) bool {
		s := sim.NewScheduler(1)
		c := NewCache(s, PolicyNaive, time.Second)
		accepted := make(map[ethaddr.IPv4]map[ethaddr.MAC]bool)
		c.OnEvent(func(e Event) {
			if e.Kind == EventRejected {
				return
			}
			if accepted[e.IP] == nil {
				accepted[e.IP] = make(map[ethaddr.MAC]bool)
			}
			accepted[e.IP][e.NewMAC] = true
		})
		for _, op := range ops {
			applyOp(s, c, op)
		}
		for ip, e := range c.Snapshot() {
			if e.Static {
				continue
			}
			if !accepted[ip][e.MAC] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertySolicitedOnlyNeverLearnsUnsolicited: under the patched-kernel
// policy, no unsolicited traffic of any shape may create a binding.
func TestPropertySolicitedOnlyNeverLearnsUnsolicited(t *testing.T) {
	f := func(ops []cacheOp) bool {
		s := sim.NewScheduler(1)
		c := NewCache(s, PolicySolicitedOnly, time.Second)
		for _, op := range ops {
			op.solicited = false // strip every solicited flag
			applyOp(s, c, op)
		}
		return c.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNoOverwriteFirstWriterWinsUntilExpiry: under the no-overwrite
// policy, whenever two updates for the same IP land without the clock
// passing the TTL in between, the earlier accepted binding survives.
func TestPropertyNoOverwriteFirstWriterWinsUntilExpiry(t *testing.T) {
	f := func(macs []uint8) bool {
		if len(macs) == 0 {
			return true
		}
		s := sim.NewScheduler(1)
		c := NewCache(s, PolicyNoOverwrite, time.Hour) // nothing expires
		ip := poolIP(0)
		first := poolMAC(macs[0])
		for _, m := range macs {
			c.Update(arppkt.NewReply(poolMAC(m), ip, poolMAC(7), poolIP(7)), false)
		}
		mac, ok := c.Lookup(ip)
		return ok && mac == first
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLenMatchesSnapshot: Len and Snapshot agree under arbitrary
// histories (expiry included).
func TestPropertyLenMatchesSnapshot(t *testing.T) {
	f := func(ops []cacheOp) bool {
		s := sim.NewScheduler(1)
		c := NewCache(s, PolicyNaive, 2*time.Second)
		for _, op := range ops {
			applyOp(s, c, op)
		}
		return c.Len() == len(c.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
