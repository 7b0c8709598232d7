package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/sim"
)

// camModel is the reference CAM: a Go map plus an insertion-order key slice
// that swap-removes on delete, the representation the dense table replaced.
// Its victim choice (first expired entry in order, else a uniformly random
// position) is the behaviour Figure 5's MAC-flooding runs depend on.
type camModel struct {
	m     map[modelKey]modelEntry
	order []modelKey
	cap   int
	ttl   time.Duration
	evict bool
	rng   *rand.Rand
}

type modelKey struct {
	vlan uint16
	mac  ethaddr.MAC
}

type modelEntry struct {
	port    int
	expires time.Duration
	idx     int
}

func (m *camModel) delete(k modelKey) {
	e := m.m[k]
	last := len(m.order) - 1
	moved := m.order[last]
	m.order[e.idx] = moved
	m.order = m.order[:last]
	if moved != k {
		me := m.m[moved]
		me.idx = e.idx
		m.m[moved] = me
	}
	delete(m.m, k)
}

// learn mirrors Switch.learn and returns the evicted key, if any.
func (m *camModel) learn(port int, vlan uint16, mac ethaddr.MAC, now time.Duration) (victim modelKey, evicted bool) {
	k := modelKey{vlan, mac}
	if e, ok := m.m[k]; ok {
		e.port = port
		e.expires = now + m.ttl
		m.m[k] = e
		return
	}
	if len(m.m) >= m.cap {
		for _, ok := range m.order {
			if m.m[ok].expires <= now {
				victim, evicted = ok, true
				break
			}
		}
		if !evicted && m.evict {
			victim, evicted = m.order[m.rng.Intn(len(m.order))], true
		}
		if !evicted {
			return
		}
		m.delete(victim)
	}
	m.m[k] = modelEntry{port: port, expires: now + m.ttl, idx: len(m.order)}
	m.order = append(m.order, k)
	return
}

func (m *camModel) lookup(vlan uint16, mac ethaddr.MAC, now time.Duration) (int, bool) {
	e, ok := m.m[modelKey{vlan, mac}]
	if !ok || e.expires <= now {
		return 0, false
	}
	return e.port, true
}

func (m *camModel) liveLen(now time.Duration) int {
	n := 0
	for _, e := range m.m {
		if e.expires > now {
			n++
		}
	}
	return n
}

// TestPropertyCAMMatchesMapModel drives random learn, refresh, clock,
// expiry-reclaim, random-eviction and FlushCAM sequences through a switch
// and the reference model and, after every step, compares the eviction
// victim, every VLAN-scoped forwarding lookup, CAMLen, and the full table
// order (which fixes every future victim).
func TestPropertyCAMMatchesMapModel(t *testing.T) {
	const (
		macs     = 40
		capacity = 16
	)
	vlans := []uint16{1, 2, 4095}
	mac := func(i int) ethaddr.MAC { return ethaddr.MAC{0x02, 0x42, 0xac, 0, byte(i >> 8), byte(i)} }
	evictions := 0
	for seed := int64(1); seed <= 16; seed++ {
		s := sim.NewScheduler(seed)
		opts := []SwitchOption{WithCAMCapacity(capacity)}
		evict := seed%2 == 0
		if evict {
			opts = append(opts, WithCAMEvictRandom())
		}
		sw := NewSwitch(s, opts...)
		sw.camTTL = time.Second
		m := &camModel{
			m: make(map[modelKey]modelEntry), cap: capacity, ttl: time.Second,
			evict: evict, rng: sim.NewScheduler(seed).Rand(), // same stream as s.Rand()
		}
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 3000; step++ {
			now := s.Now()
			switch w := r.Intn(100); {
			case w < 80:
				port, vlan, mc := r.Intn(6), vlans[r.Intn(len(vlans))], mac(r.Intn(macs))
				before := len(sw.cam)
				victim, evicted := m.learn(port, vlan, mc, now)
				sw.learn(port, vlan, mc, now)
				if evicted {
					evictions++
					if sw.camIndex.Get(camKey(victim.vlan, victim.mac)) >= 0 {
						t.Fatalf("seed %d step %d: model evicted %v, switch kept it", seed, step, victim)
					}
				} else if len(sw.cam) < before {
					t.Fatalf("seed %d step %d: switch evicted an entry, model none", seed, step)
				}
			case w < 97:
				if err := s.RunUntil(now + time.Duration(r.Intn(400))*time.Millisecond); err != nil {
					t.Fatal(err)
				}
			default:
				sw.FlushCAM()
				clear(m.m)
				m.order = m.order[:0]
			}
			now = s.Now()
			if len(sw.cam) != len(m.order) || sw.camIndex.Len() != len(m.order) {
				t.Fatalf("seed %d step %d: table %d / index %d entries, model %d",
					seed, step, len(sw.cam), sw.camIndex.Len(), len(m.order))
			}
			for i, k := range m.order {
				e, me := sw.cam[i], m.m[k]
				if e.key != camKey(k.vlan, k.mac) || e.port != me.port || e.expires != me.expires {
					t.Fatalf("seed %d step %d: table position %d holds %+v, model %v %+v", seed, step, i, e, k, me)
				}
			}
			if got, want := sw.CAMLen(), m.liveLen(now); got != want {
				t.Fatalf("seed %d step %d: CAMLen %d, model %d", seed, step, got, want)
			}
			for i := 0; i < macs; i++ {
				for _, vlan := range vlans {
					wantPort, wantOK := m.lookup(vlan, mac(i), now)
					e := sw.camLookup(vlan, mac(i), now)
					if (e != nil) != wantOK || (wantOK && e.port != wantPort) {
						t.Fatalf("seed %d step %d: lookup(%d, %d) = %+v, model %d %v", seed, step, vlan, i, e, wantPort, wantOK)
					}
				}
			}
		}
	}
	if evictions == 0 {
		t.Fatal("no step evicted an entry; the op mix no longer exercises reclaim or random eviction")
	}
}
