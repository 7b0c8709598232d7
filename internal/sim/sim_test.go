package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestRunOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events at same instant ran out of FIFO order: %v", order)
		}
	}
}

func TestAfterNestsRelativeToFiringTime(t *testing.T) {
	s := NewScheduler(1)
	var at []time.Duration
	s.After(10*time.Millisecond, func() {
		at = append(at, s.Now())
		s.After(5*time.Millisecond, func() {
			at = append(at, s.Now())
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 10*time.Millisecond || at[1] != 15*time.Millisecond {
		t.Fatalf("firing times = %v", at)
	}
}

func TestPastEventsRunNowWithoutClockRewind(t *testing.T) {
	s := NewScheduler(1)
	var fired time.Duration
	s.After(10*time.Millisecond, func() {
		// Scheduling at an absolute instant in the past must clamp to now.
		s.At(1*time.Millisecond, func() { fired = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamped to 10ms", fired)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewScheduler(1)
	var ran []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		d := d * time.Millisecond
		s.At(d, func() { ran = append(ran, d) })
	}
	if err := s.RunUntil(12 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %v events, want 2", ran)
	}
	if s.Now() != 12*time.Millisecond {
		t.Fatalf("clock should advance to horizon, got %v", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	// Resume: remaining events still fire.
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 4 {
		t.Fatalf("after resume ran %v, want all 4", ran)
	}
}

func TestEventExactlyAtHorizonRuns(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.At(10*time.Millisecond, func() { fired = true })
	if err := s.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event at the horizon should fire")
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(5*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending event")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEvery(t *testing.T) {
	s := NewScheduler(1)
	var count int
	var tm Timer
	tm = s.Every(10*time.Millisecond, func() {
		count++
		if count == 5 {
			tm.Stop()
		}
	})
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := NewScheduler(1)
	var count int
	s.Every(time.Millisecond, func() {
		count++
		if count == 3 {
			s.Stop()
		}
	})
	err := s.RunUntil(time.Second)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

// TestStopFromLastQueuedEvent: a Stop called by the only queued event is
// reported like any other stop — ErrStopped, with the clock left at the
// stopping event rather than moved to the horizon — by RunUntil, Run and
// the sharded window primitive alike, and a later run resumes from there.
func TestStopFromLastQueuedEvent(t *testing.T) {
	const at, horizon = 10 * time.Millisecond, time.Second
	for _, tc := range []struct {
		name string
		run  func(s *Scheduler) error
	}{
		{"RunUntil", func(s *Scheduler) error { return s.RunUntil(horizon) }},
		{"Run", func(s *Scheduler) error { return s.Run() }},
		{"runBefore", func(s *Scheduler) error { return s.runBefore(horizon) }},
	} {
		for _, more := range []bool{false, true} {
			s := NewScheduler(1)
			s.At(at, s.Stop)
			ranLater := false
			if more { // the case that always worked: something is still queued
				s.At(2*at, func() { ranLater = true })
			}
			if err := tc.run(s); !errors.Is(err, ErrStopped) {
				t.Fatalf("%s (more queued %v): err = %v, want ErrStopped", tc.name, more, err)
			}
			if s.Now() != at {
				t.Fatalf("%s (more queued %v): stopped with the clock at %v, want %v", tc.name, more, s.Now(), at)
			}
			if ranLater {
				t.Fatalf("%s: ran an event after the stop", tc.name)
			}
			// Resume: whatever is still queued runs, and RunUntil ends at its
			// horizon.
			if err := s.RunUntil(horizon); err != nil {
				t.Fatalf("%s (more queued %v): resume: %v", tc.name, more, err)
			}
			if ranLater != more || s.Now() != horizon {
				t.Fatalf("%s (more queued %v): resume ran the later event %v, clock %v", tc.name, more, ranLater, s.Now())
			}
		}
	}
}

// firing is one executed event: its instant and its FIFO sequence number.
type firing struct {
	at  time.Duration
	seq uint64
}

// stopResumeTrace runs a seeded mix of one-shot, same-instant, nested,
// cancelled and periodic events to horizon and returns the (at, seq) of
// every firing. stopAt(n) is asked after the n-th firing (1-based) whether
// to call Stop there; each stop is followed by a RunUntil to the same
// horizon, and resumes counts them.
func stopResumeTrace(t *testing.T, stopAt func(n int) bool) (trace []firing, resumes int) {
	t.Helper()
	const horizon = 200 * time.Millisecond
	s := NewScheduler(5)
	record := func(tm *Timer) {
		trace = append(trace, firing{at: s.Now(), seq: tm.ev.seq})
		if stopAt(len(trace)) {
			s.Stop()
		}
	}
	var spawn func(d time.Duration, depth int)
	spawn = func(d time.Duration, depth int) {
		tm := new(Timer)
		*tm = s.After(d, func() {
			record(tm)
			if depth < 4 {
				spawn(0, depth+1) // same instant: FIFO after what is queued there
				spawn(time.Duration(s.Rand().Intn(5000))*time.Microsecond, depth+1)
			}
		})
		if s.Rand().Intn(8) == 0 {
			tm.Stop()
		}
	}
	for i := 0; i < 30; i++ {
		spawn(time.Duration(s.Rand().Intn(150))*time.Millisecond, 0)
	}
	for _, period := range []time.Duration{3 * time.Millisecond, 7 * time.Millisecond, 7 * time.Millisecond} {
		tm := new(Timer)
		fired := 0
		*tm = s.Every(period, func() {
			record(tm)
			if fired++; fired == 20 {
				tm.Stop()
			}
		})
	}
	for {
		err := s.RunUntil(horizon)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("RunUntil: %v", err)
		}
		resumes++
	}
	if s.Now() != horizon {
		t.Fatalf("clock ended at %v, want the horizon %v", s.Now(), horizon)
	}
	return trace, resumes
}

// TestStopResumeMatchesUninterruptedRun: stopping a run mid-way and
// resuming it with RunUntil executes exactly the events an uninterrupted
// run does, in the same (at, seq) order, whether it stops once, often or
// after every event.
func TestStopResumeMatchesUninterruptedRun(t *testing.T) {
	want, _ := stopResumeTrace(t, func(int) bool { return false })
	if len(want) < 200 {
		t.Fatalf("workload too small to interrupt meaningfully: %d firings", len(want))
	}
	for _, tc := range []struct {
		name   string
		stopAt func(n int) bool
	}{
		{"once", func(n int) bool { return n == len(want)/2 }},
		{"every-7th", func(n int) bool { return n%7 == 0 }},
		{"every-event", func(int) bool { return true }},
	} {
		got, resumes := stopResumeTrace(t, tc.stopAt)
		if resumes == 0 {
			t.Fatalf("%s: the run never stopped", tc.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d resumes changed the trace (%d firings, want %d)",
				tc.name, resumes, len(got), len(want))
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	trace := func(seed int64) []time.Duration {
		s := NewScheduler(seed)
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, s.Now())
			if len(out) < 50 {
				jitter := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
				s.After(jitter, step)
			}
		}
		s.After(0, step)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := trace(7), trace(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical stochastic traces")
	}
}

func TestZeroTimerStopIsInert(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer should report nothing to stop")
	}
}

// TestStaleTimerAfterReuse pins the generation-counter contract: once an
// event has fired and its object has been recycled into a new event, the
// old handle must not cancel the new incarnation.
func TestStaleTimerAfterReuse(t *testing.T) {
	s := NewScheduler(1)
	first := s.After(time.Millisecond, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The free list now holds the fired event; the next schedule reuses it.
	fired := false
	second := s.After(time.Millisecond, func() { fired = true })
	if second.ev != first.ev {
		t.Fatal("expected the recycled event object to be reused")
	}
	if first.Stop() {
		t.Fatal("stale handle reported a pending event")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale Stop cancelled the reused event")
	}
}

// TestEveryReusesOneEvent pins the periodic re-arm optimization: a ticker
// must cycle a single event object instead of allocating one per period.
func TestEveryReusesOneEvent(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	tm := s.Every(time.Millisecond, func() { count++ })
	ev := tm.ev
	if err := s.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if tm.ev != ev || tm.ev.gen != tm.gen {
		t.Fatal("periodic event was recycled mid-cycle")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report the pending next tick")
	}
	if err := s.RunUntil(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("ticks after Stop: count = %d", count)
	}
}

// TestStopInsideEveryCallbackWithReuse re-checks the documented Stop-from-
// within-Every semantics now that the cycle re-arms one pooled event.
func TestStopInsideEveryCallbackAllowsReuse(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var tm Timer
	tm = s.Every(time.Millisecond, func() {
		count++
		tm.Stop()
	})
	// A later one-shot that may legitimately reuse the ticker's event.
	laterRan := false
	s.At(50*time.Millisecond, func() { laterRan = true })
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1 (stopped from inside)", count)
	}
	if !laterRan {
		t.Fatal("unrelated later event did not run")
	}
}

// TestEventReuseKeepsDeterminism replays a stochastic self-scheduling chain
// long enough to cycle the free list many times and checks two identically
// seeded runs still trace identically.
func TestEventReuseKeepsDeterminism(t *testing.T) {
	trace := func() []time.Duration {
		s := NewScheduler(11)
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, s.Now())
			if len(out) < 5000 {
				s.After(time.Duration(s.Rand().Intn(100))*time.Microsecond, step)
			}
		}
		s.After(0, step)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestFreeListTracksPeak guards the recycle pool's memory bound: the free
// list holds every event ever carved (rounded up to whole slabs), so it
// must track the peak number of in-flight events, not the total scheduled.
func TestFreeListTracksPeak(t *testing.T) {
	const n = 10 * eventSlabSize
	s := NewScheduler(1)
	for i := 0; i < n; i++ {
		s.After(time.Duration(i), func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.free) < n || len(s.free) > n+eventSlabSize {
		t.Fatalf("free list holds %d events after %d concurrent, want ~%d", len(s.free), n, n)
	}
	// Re-running the same load must reuse the carved slabs, not grow.
	for i := 0; i < n; i++ {
		s.After(time.Duration(i), func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.free) > n+eventSlabSize {
		t.Fatalf("free list grew to %d on reuse, want at most %d", len(s.free), n+eventSlabSize)
	}
}

func TestExecutedCount(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Executed() != 10 {
		t.Fatalf("Executed = %d, want 10", s.Executed())
	}
}

// drawN takes n samples from a stream for comparison.
func drawN(r *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

func TestDeriveRandDeterministicAcrossSchedulers(t *testing.T) {
	a := NewScheduler(42)
	b := NewScheduler(42)
	if !reflect.DeepEqual(drawN(a.DeriveRand("x"), 8), drawN(b.DeriveRand("x"), 8)) {
		t.Fatal("same seed + same name produced different streams")
	}
}

func TestDeriveRandIndependentStreams(t *testing.T) {
	s := NewScheduler(42)
	x := drawN(s.DeriveRand("x"), 8)
	// A different name diverges.
	if reflect.DeepEqual(x, drawN(s.DeriveRand("y"), 8)) {
		t.Fatal("streams \"x\" and \"y\" coincide")
	}
	// A second derivation of the same name is a NEW stream (per-name call
	// sequence), so multiple consumers of one name don't share state.
	if reflect.DeepEqual(x, drawN(s.DeriveRand("x"), 8)) {
		t.Fatal("second derivation of \"x\" repeated the first stream")
	}
	// The derived streams leave the scheduler's primary stream untouched.
	p := NewScheduler(42)
	p.DeriveRand("x")
	p.DeriveRand("y")
	q := NewScheduler(42)
	if p.Rand().Int63() != q.Rand().Int63() {
		t.Fatal("deriving streams perturbed the primary stream")
	}
}

func TestDeriveRandSeedSensitivity(t *testing.T) {
	a := NewScheduler(1)
	b := NewScheduler(2)
	if reflect.DeepEqual(drawN(a.DeriveRand("x"), 8), drawN(b.DeriveRand("x"), 8)) {
		t.Fatal("different seeds produced the same derived stream")
	}
}

func TestCausePropagatesAcrossScheduledEvents(t *testing.T) {
	s := NewScheduler(1)
	var hops []uint64
	s.After(0, func() {
		prev := s.SetCause(42)
		if prev != 0 {
			t.Fatalf("initial cause = %d, want 0", prev)
		}
		s.After(time.Millisecond, func() {
			hops = append(hops, s.Cause())
			// A nested hop inherits transitively.
			s.After(time.Millisecond, func() { hops = append(hops, s.Cause()) })
		})
		s.SetCause(prev)
		// Scheduled after restoring: carries no cause.
		s.After(time.Millisecond, func() { hops = append(hops, s.Cause()) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []uint64{42, 0, 42}
	if len(hops) != len(want) {
		t.Fatalf("hops = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", hops, want)
		}
	}
}

func TestCauseResetBetweenTopLevelEvents(t *testing.T) {
	s := NewScheduler(1)
	s.After(0, func() { s.SetCause(7) }) // leaks deliberately
	s.After(time.Millisecond, func() {
		if c := s.Cause(); c != 0 {
			t.Fatalf("cause leaked across events: %d", c)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicEventKeepsItsCause(t *testing.T) {
	s := NewScheduler(1)
	var seen []uint64
	var tick Timer
	s.After(0, func() {
		prev := s.SetCause(9)
		n := 0
		tick = s.Every(time.Millisecond, func() {
			seen = append(seen, s.Cause())
			if n++; n == 3 {
				tick.Stop()
			}
		})
		s.SetCause(prev)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range seen {
		if c != 9 {
			t.Fatalf("periodic cause = %v, want all 9", seen)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("fired %d times, want 3", len(seen))
	}
}

func TestTraceRecorderAttachment(t *testing.T) {
	s := NewScheduler(1)
	if s.TraceRecorder() != nil {
		t.Fatal("fresh scheduler has a trace recorder")
	}
	v := &struct{ x int }{1}
	s.SetTraceRecorder(v)
	if s.TraceRecorder() != any(v) {
		t.Fatal("attachment not returned")
	}
}
