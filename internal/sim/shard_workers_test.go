package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back to at most base:
// a joined helper has called wg.Done but may not have exited yet.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive RunUntil (base %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedWorkersJoined: the worker set starts inside RunUntil and no
// helper outlives it, whether the run ends at the horizon, on the
// coordinator's Stop, or on a shard's error, at widths 2 and 8.
func TestShardedWorkersJoined(t *testing.T) {
	cases := []struct {
		name string
		arm  func(ss *ShardedScheduler)
		want error
	}{
		{"horizon", func(*ShardedScheduler) {}, nil},
		{"coordinator-stop", func(ss *ShardedScheduler) {
			ss.Shard(1).At(700*time.Millisecond, ss.Stop)
			ss.Shard(1).At(2700*time.Millisecond, ss.Stop)
		}, ErrStopped},
		{"shard-error", func(ss *ShardedScheduler) {
			sh := ss.Shard(2)
			sh.At(700*time.Millisecond, sh.Stop)
			sh.At(2700*time.Millisecond, sh.Stop)
		}, ErrStopped},
	}
	for _, w := range []int{2, 8} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/w%d", c.name, w), func(t *testing.T) {
				base := runtime.NumGoroutine()
				ss, _ := buildAlternating(w)
				c.arm(ss)
				for _, horizon := range []time.Duration{2 * time.Second, 4 * time.Second} {
					// The second call restarts the set.
					if err := ss.RunUntil(horizon); err != c.want {
						t.Fatalf("RunUntil = %v, want %v", err, c.want)
					}
					if ss.pool == nil {
						t.Fatal("no window ran on the worker set")
					}
					if ss.pool.running {
						t.Fatal("worker set still running after RunUntil returned")
					}
					waitGoroutines(t, base)
				}
			})
		}
	}
}

// TestClaimsHandOutEachActiveOnce: concurrent claimers, stealing included,
// hand out every active index exactly once, for every active-set size
// 1..64 over 64 shards, at widths 2, 3 and 8, with the active set drawn
// both at random and all from the first worker's home (so the other
// workers can only steal). Run it under -race.
func TestClaimsHandOutEachActiveOnce(t *testing.T) {
	const shards = 64
	rng := rand.New(rand.NewSource(1))
	steals := 0
	for _, w := range []int{2, 3, 8} {
		c := make(claims, w)
		for n := 1; n <= shards; n++ {
			for _, skewed := range []bool{false, true} {
				active := rng.Perm(shards)[:n]
				if skewed {
					for i := range active {
						active[i] = i * (shards / w) / n
					}
				}
				slices.Sort(active)
				c.split(active, shards)
				home := make([][2]int, w)
				for k := range c {
					v := c[k].fb.Load()
					home[k] = [2]int{int(v >> 32), int(v & (1<<32 - 1))}
				}
				got := make([][]int, w)
				var wg sync.WaitGroup
				for k := 0; k < w; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						for {
							i, ok := c.next(k)
							if !ok {
								return
							}
							got[k] = append(got[k], i)
							runtime.Gosched()
						}
					}(k)
				}
				wg.Wait()
				seen := make([]int, n)
				for k, idx := range got {
					for _, i := range idx {
						if i < 0 || i >= n {
							t.Fatalf("w%d n%d: worker %d claimed index %d", w, n, k, i)
						}
						seen[i]++
						if i < home[k][0] || i >= home[k][1] {
							steals++
						}
					}
				}
				for i, s := range seen {
					if s != 1 {
						t.Fatalf("w%d n%d skewed=%v: active index %d claimed %d times", w, n, skewed, i, s)
					}
				}
			}
		}
	}
	if steals == 0 {
		t.Fatal("no claim was ever stolen: the test does not exercise the back end")
	}
}

// TestClaimsTwoEnded pins the claim order at width 2 over 64 active
// shards: worker 0 takes its home half from the front, worker 1 its own
// half from the front, and then steals worker 0's half from the back.
func TestClaimsTwoEnded(t *testing.T) {
	active := make([]int, 64)
	for i := range active {
		active[i] = i
	}
	c := make(claims, 2)
	c.split(active, 64)
	take := func(k int) int {
		i, ok := c.next(k)
		if !ok {
			t.Fatalf("worker %d found nothing to claim", k)
		}
		return i
	}
	if a, b := take(0), take(1); a != 0 || b != 32 {
		t.Fatalf("first claims = %d, %d, want 0, 32", a, b)
	}
	for i := 33; i < 64; i++ {
		if got := take(1); got != i {
			t.Fatalf("worker 1 claimed %d, want %d", got, i)
		}
	}
	if got := take(1); got != 31 {
		t.Fatalf("worker 1 stole %d, want 31 (the back of worker 0's half)", got)
	}
	if got := take(0); got != 1 {
		t.Fatalf("worker 0 claimed %d, want 1", got)
	}
}

// buildAlternating wires 12 shards whose windows alternate between a few
// active shards and all of them: shards 0-2 tick every 10ms, the rest
// every 20ms from 10ms on, and every tick ships a message to the next
// shard, which lands 1ms later in a window of its own.
func buildAlternating(workers int) (*ShardedScheduler, []strings.Builder) {
	const n = 12
	ss := NewSharded(5, n)
	ss.SetWorkers(workers)
	logs := make([]strings.Builder, n)
	links := make([]*CrossLink, n)
	for i := range links {
		links[i] = ss.Link(i, (i+1)%n, time.Millisecond)
	}
	for i := 0; i < n; i++ {
		sh := ss.Shard(i)
		tick := func() {
			j := sh.Int63n(1000)
			fmt.Fprintf(&logs[i], "s%d tick @%v j%d\n", i, sh.Now(), j)
			dst := (i + 1) % n
			links[i].Send(func() {
				fmt.Fprintf(&logs[dst], "s%d recv from s%d @%v\n", dst, i, ss.Shard(dst).Now())
			})
		}
		if i < 3 {
			sh.Every(10*time.Millisecond, tick)
		} else {
			sh.At(10*time.Millisecond, func() { tick(); sh.Every(20*time.Millisecond, tick) })
		}
	}
	return ss, logs
}

// alternatingTranscript runs buildAlternating for a second and
// concatenates the per-shard logs in shard order.
func alternatingTranscript(t *testing.T, workers int) string {
	t.Helper()
	ss, logs := buildAlternating(workers)
	if err := ss.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	var all strings.Builder
	for i := range logs {
		fmt.Fprintf(&all, "== shard %d (executed %d)\n%s", i, ss.Shard(i).Executed(), logs[i].String())
	}
	return all.String()
}

// TestShardedWidthParityAlternating: windows that alternate between a few
// active shards (run inline on the coordinator) and all of them (run on
// the worker set) give the same transcript at widths 1, 2 and 8.
func TestShardedWidthParityAlternating(t *testing.T) {
	want := alternatingTranscript(t, 1)
	for _, w := range []int{2, 8} {
		if got := alternatingTranscript(t, w); got != want {
			t.Fatalf("width %d transcript diverged from width 1\nwidth1:\n%s\nwidth%d:\n%s", w, want, w, got)
		}
	}
}

// TestShardedWorkersBlockBeyondGOMAXPROCS: a worker set wider than
// GOMAXPROCS parks instead of spinning, and still produces the width-1
// transcript.
func TestShardedWorkersBlockBeyondGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if !spinAllowed(2) || spinAllowed(3) {
		t.Fatalf("GOMAXPROCS 2: spinAllowed(2) = %v, spinAllowed(3) = %v, want true, false",
			spinAllowed(2), spinAllowed(3))
	}
	runtime.GOMAXPROCS(1)
	want := alternatingTranscript(t, 1)
	for _, w := range []int{2, 8} {
		if got := alternatingTranscript(t, w); got != want {
			t.Fatalf("width %d at GOMAXPROCS 1 diverged from width 1", w)
		}
		ss, _ := buildAlternating(w)
		if err := ss.RunUntil(100 * time.Millisecond); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		if ss.pool == nil || ss.pool.spin {
			t.Fatalf("width %d at GOMAXPROCS 1: the worker set did not run or spins", w)
		}
	}
}

// TestShardedRoundsAllocFree: at width 2 a window allocates nothing, so
// the allocations of one RunUntil (starting its helpers) do not grow with
// the number of windows it runs.
func TestShardedRoundsAllocFree(t *testing.T) {
	const n = 8
	ss := NewSharded(3, n)
	ss.SetWorkers(2)
	for i := 0; i < n; i++ {
		link := ss.Link(i, (i+1)%n, time.Millisecond)
		noop := func() {}
		ss.Shard(i).Every(time.Millisecond, func() { link.Send(noop) })
	}
	horizon := 50 * time.Millisecond
	if err := ss.RunUntil(horizon); err != nil { // grow outboxes and queues
		t.Fatal(err)
	}
	allocs := func(windows int) float64 {
		return testing.AllocsPerRun(20, func() {
			horizon += time.Duration(windows) * time.Millisecond
			if err := ss.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(4), allocs(100)
	t.Logf("allocs per RunUntil: %.1f over 4 windows, %.1f over 100", few, many)
	if many > few {
		t.Fatalf("allocs per RunUntil grow with the window count: %.1f over 4 windows, %.1f over 100", few, many)
	}
}
