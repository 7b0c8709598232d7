//go:build go1.24

package labnet

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestRecycleReleasesTopology: a recycled topology is garbage. Neither the
// pooled scheduler (its event slabs keep every pending callback and task)
// nor netsim's transit free list (a frame still in flight at the horizon)
// may keep the finished LAN reachable, or every trial would grow the heap
// by the previous trial's topology.
func TestRecycleReleasesTopology(t *testing.T) {
	collected := func(t *testing.T, wp weak.Pointer[LAN]) {
		t.Helper()
		runtime.GC()
		if wp.Value() != nil {
			t.Fatal("recycled LAN is still reachable")
		}
	}
	t.Run("campus", func(t *testing.T) {
		collected(t, func() weak.Pointer[LAN] {
			c := NewCampus(CampusConfig{Seed: 3, LANs: 4, HostsPerLAN: 64, WithAttacker: true})
			deployArpwatch(t, c)
			if err := c.Run(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			wp := weak.Make(c.LANs[1].LAN)
			c.Recycle()
			return wp
		}())
	})
	t.Run("lan", func(t *testing.T) {
		collected(t, func() weak.Pointer[LAN] {
			l := New(Config{Seed: 3, WithAttacker: true, WithMonitor: true})
			l.Sched.Every(time.Second, func() { l.Victim().SendUDP(l.Gateway().IP(), 2000, 80, nil) })
			if err := l.Run(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			wp := weak.Make(l)
			l.Recycle()
			return wp
		}())
	})
}
