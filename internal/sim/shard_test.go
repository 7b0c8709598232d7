package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// buildShardWorkload wires a ring of n shards, each running periodic local
// work that schedules follow-up events and ships every third tick across
// the ring's trunks, logging everything it executes. Per-shard logs are
// appended only by that shard's events, so the combined transcript is a
// pure function of per-shard execution order. Every shard ticks on the
// same 200 ms period, so each tick's window holds all n shards and a
// width above 1 runs it on the worker set (see wideWindows).
func buildShardWorkload(t *testing.T, seed int64, n, workers int) (*ShardedScheduler, []*strings.Builder) {
	t.Helper()
	ss := NewSharded(seed, n)
	ss.SetWorkers(workers)
	logs := make([]*strings.Builder, n)
	links := make([]*CrossLink, n)
	for i := 0; i < n; i++ {
		logs[i] = &strings.Builder{}
		links[i] = ss.Link(i, (i+1)%n, time.Millisecond)
	}
	for i := 0; i < n; i++ {
		i := i
		sh := ss.Shard(i)
		tick := 0
		sh.Every(200*time.Millisecond, func() {
			tick++
			now := sh.Now()
			jitter := sh.Int63n(1000) // exercise per-shard RNG isolation
			fmt.Fprintf(logs[i], "s%d tick %d @%v j%d\n", i, tick, now, jitter)
			sh.After(time.Duration(jitter)*time.Microsecond, func() {
				fmt.Fprintf(logs[i], "s%d follow @%v\n", i, sh.Now())
			})
			if tick%3 == 0 {
				from, k := i, tick
				dst := (i + 1) % n
				links[i].Send(func() {
					fmt.Fprintf(logs[dst], "s%d recv from s%d tick %d @%v\n",
						dst, from, k, ss.Shard(dst).Now())
				})
			}
		})
	}
	return ss, logs
}

// wideWindows returns how many windows the last RunUntil ran on the
// worker set: its epoch counts released windows plus the final release
// that joins the helpers.
func wideWindows(ss *ShardedScheduler) uint64 {
	if ss.pool == nil {
		return 0
	}
	return ss.pool.epoch.Load() - 1
}

// transcript runs the workload to the horizon and concatenates the
// per-shard logs in shard order. Above width 1 the worker set must have
// run windows, or the parity it is compared for would be the inline
// path's.
func transcript(t *testing.T, seed int64, n, workers int, horizon time.Duration) string {
	t.Helper()
	ss, logs := buildShardWorkload(t, seed, n, workers)
	if err := ss.RunUntil(horizon); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if workers > 1 && wideWindows(ss) == 0 {
		t.Fatalf("width %d: no window ran on the worker set", workers)
	}
	var all strings.Builder
	for i, l := range logs {
		fmt.Fprintf(&all, "== shard %d (now %v, executed %d)\n%s",
			i, ss.Shard(i).Now(), ss.Shard(i).Executed(), l.String())
	}
	return all.String()
}

// TestShardedWidthParity is the engine's core determinism contract: the
// same seed produces byte-identical transcripts at worker widths 1, 2, 8.
func TestShardedWidthParity(t *testing.T) {
	const shards = 5
	want := transcript(t, 42, shards, 1, 10*time.Second)
	if !strings.Contains(want, "recv from") {
		t.Fatalf("workload never crossed a shard boundary:\n%s", want)
	}
	for _, w := range []int{2, 8} {
		if got := transcript(t, 42, shards, w, 10*time.Second); got != want {
			t.Fatalf("width %d transcript diverged from width 1\nwidth1:\n%s\nwidth%d:\n%s",
				w, want, w, got)
		}
	}
}

// TestCrossLinkTiming pins the delivery semantics: a message sent at
// sender-virtual-time T over a latency-L link runs on the destination at
// exactly T+L, and never inside the window that sent it.
func TestCrossLinkTiming(t *testing.T) {
	ss := NewSharded(1, 2)
	link := ss.Link(0, 1, 3*time.Millisecond)
	var deliveredAt time.Duration
	ss.Shard(0).At(7*time.Millisecond, func() {
		link.Send(func() { deliveredAt = ss.Shard(1).Now() })
	})
	if err := ss.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if want := 10 * time.Millisecond; deliveredAt != want {
		t.Fatalf("cross message delivered at %v, want %v", deliveredAt, want)
	}
	if got := ss.CrossMessages(); got != 1 {
		t.Fatalf("CrossMessages = %d, want 1", got)
	}
}

// TestShardedHorizonSemantics: events exactly at the horizon run (matching
// Scheduler.RunUntil), every shard's clock lands on the horizon, and
// unlinked shard sets run in one window.
func TestShardedHorizonSemantics(t *testing.T) {
	ss := NewSharded(9, 3) // no links: lookahead 0, independent shards
	ran := make([]bool, 3)
	for i := range ran {
		i := i
		ss.Shard(i).At(time.Second, func() { ran[i] = true })
		ss.Shard(i).At(time.Second+time.Nanosecond, func() {
			t.Errorf("shard %d ran an event beyond the horizon", i)
		})
	}
	if err := ss.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("shard %d event at the horizon did not run", i)
		}
		if now := ss.Shard(i).Now(); now != time.Second {
			t.Errorf("shard %d clock = %v, want 1s", i, now)
		}
	}
	if ss.Rounds() != 1 {
		t.Errorf("unlinked shards took %d rounds, want 1", ss.Rounds())
	}
}

// TestShardedStop: a shard stopping mid-window aborts the whole run with
// ErrStopped, exactly like the single-scheduler contract.
func TestShardedStop(t *testing.T) {
	ss := NewSharded(3, 2)
	ss.Link(0, 1, time.Millisecond)
	sh := ss.Shard(0)
	sh.At(5*time.Millisecond, sh.Stop)
	// Stop halts "after the currently executing event returns", observed at
	// the next loop step — there must be later work for the run to abandon.
	sh.Every(time.Millisecond, func() {})
	if err := ss.RunUntil(time.Second); err != ErrStopped {
		t.Fatalf("RunUntil = %v, want ErrStopped", err)
	}
}

// TestShardSeedDecorrelated: shard seeds differ from each other and from
// the root seed.
func TestShardSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{7: true}
	for i := 0; i < 64; i++ {
		s := ShardSeed(7, i)
		if seen[s] {
			t.Fatalf("shard seed collision at shard %d", i)
		}
		seen[s] = true
	}
	if ShardSeed(7, 3) == ShardSeed(8, 3) {
		t.Fatal("shard seed ignores the root seed")
	}
}

// TestShardedTelemetry: the synchronization metrics the ops surface
// exports move, and match the engine's own counters.
func TestShardedTelemetry(t *testing.T) {
	reg := telemetry.New()
	ss, _ := buildShardWorkload(t, 11, 4, 2)
	ss.Instrument(reg)
	if err := ss.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if ss.Rounds() == 0 || ss.SyncWaits() == 0 || ss.CrossMessages() == 0 {
		t.Fatalf("engine counters did not move: rounds=%d waits=%d cross=%d",
			ss.Rounds(), ss.SyncWaits(), ss.CrossMessages())
	}
	if wideWindows(ss) == 0 {
		t.Fatal("no window ran on the worker set")
	}
	checks := map[string]uint64{
		"shard_rounds_total":     ss.Rounds(),
		"shard_sync_waits_total": ss.SyncWaits(),
		"cross_lan_frames_total": ss.CrossMessages(),
	}
	for name, want := range checks {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	hp, ok := reg.HistogramSnapshot("shard_lookahead_stall_seconds")
	if !ok || hp.Count == 0 {
		t.Errorf("lookahead-stall histogram empty (ok=%v)", ok)
	}
	if hp.Count != ss.SyncWaits() {
		t.Errorf("stall observations = %d, want one per sync wait (%d)", hp.Count, ss.SyncWaits())
	}
}

// TestRunBeforeExclusive pins the window primitive's exclusive bound and
// clock behaviour on a bare scheduler.
func TestRunBeforeExclusive(t *testing.T) {
	s := NewScheduler(1)
	var ran []time.Duration
	for _, at := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		at := at
		s.At(at, func() { ran = append(ran, at) })
	}
	if err := s.runBefore(3 * time.Millisecond); err != nil {
		t.Fatalf("runBefore: %v", err)
	}
	if len(ran) != 2 {
		t.Fatalf("runBefore(3ms) ran %d events, want 2 (bound is exclusive)", len(ran))
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("clock = %v after window, want 2ms (stays at last event)", s.Now())
	}
	s.advanceTo(5 * time.Millisecond)
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("advanceTo: clock = %v, want 5ms", s.Now())
	}
	s.advanceTo(time.Millisecond) // never backwards
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("advanceTo moved the clock backwards to %v", s.Now())
	}
}
