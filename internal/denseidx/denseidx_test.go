package denseidx

import (
	"math/rand"
	"testing"
)

// TestCollidingPoolSharesHomeCell pins the pool construction: the colliding
// keys really do share a home cell at every table size the property tests
// of the index and its callers reach.
func TestCollidingPoolSharesHomeCell(t *testing.T) {
	keys := Colliding(64)
	for n := 4; n <= 2048; n *= 2 {
		var x Index
		x.Init(n)
		home := x.home(keys[0])
		for j, k := range keys {
			if k >= 1<<32 {
				t.Fatalf("colliding key %d = %#x does not fit an IPv4 address", j, k)
			}
			if h := x.home(k); h != home {
				t.Fatalf("table %d: colliding key %d homes at %d, want %d", len(x.cells), j, h, home)
			}
		}
	}
}

// TestIndexMatchesMap drives random Set/Del/Clear/Get streams over spread
// and colliding keys against a plain map, from an undersized table so
// growth is exercised, and checks every key's reachability after each step.
func TestIndexMatchesMap(t *testing.T) {
	colliding := Colliding(64)
	key := func(r *rand.Rand) uint64 {
		switch r.Intn(3) {
		case 0:
			return colliding[r.Intn(len(colliding))]
		case 1:
			return uint64(r.Intn(512)) // small keys: dense home cells
		default:
			return 1<<48 | uint64(r.Intn(512))<<8 // CAM-shaped (vlan<<48 | mac)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		var x Index
		x.Init(0)
		model := make(map[uint64]int)
		for step := 0; step < 4000; step++ {
			k := key(r)
			switch w := r.Intn(100); {
			case w < 55:
				pos := r.Intn(1 << 20)
				x.Set(k, pos)
				model[k] = pos
			case w < 95:
				want, ok := model[k]
				if !ok {
					want = -1
				}
				if got := x.Del(k); got != want {
					t.Fatalf("seed %d step %d: Del(%#x) = %d, want %d", seed, step, k, got, want)
				}
				delete(model, k)
			case seed%2 == 0:
				x.Clear()
				clear(model)
			}
			if x.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, model %d", seed, step, x.Len(), len(model))
			}
			if 2*x.Len() > len(x.cells) {
				t.Fatalf("seed %d step %d: load %d/%d above one half", seed, step, x.Len(), len(x.cells))
			}
			for mk, want := range model {
				if got := x.Get(mk); got != want {
					t.Fatalf("seed %d step %d: Get(%#x) = %d, want %d", seed, step, mk, got, want)
				}
			}
			if _, ok := model[k]; !ok && x.Get(k) != -1 {
				t.Fatalf("seed %d step %d: Get(%#x) finds a deleted key", seed, step, k)
			}
		}
	}
}

// TestInitSizesWithoutGrowth: a table initialised for n keys holds n keys
// without reallocating its cells.
func TestInitSizesWithoutGrowth(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 100, 1000} {
		var x Index
		x.Init(n)
		cells := &x.cells[0]
		for k := 0; k < n; k++ {
			x.Set(uint64(k), k)
		}
		if &x.cells[0] != cells {
			t.Fatalf("Init(%d): table grew while inserting %d keys", n, n)
		}
	}
}

// TestSetDelAllocFree: on a warm table, replacing and cycling keys never
// allocates.
func TestSetDelAllocFree(t *testing.T) {
	var x Index
	x.Init(64)
	for k := uint64(0); k < 64; k++ {
		x.Set(k, int(k))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		x.Del(7)
		x.Set(7, 7)
		x.Set(8, 9)
		_ = x.Get(63)
	})
	if allocs != 0 {
		t.Fatalf("Set/Del on a warm table: %v allocs/op, want 0", allocs)
	}
}
