// Sharded parallel discrete-event execution: many Schedulers — one time
// domain per LAN shard — advanced together under conservative-lookahead
// synchronization, so a routed multi-LAN campus runs its access LANs on
// every core while producing byte-identical results at any worker width.
//
// The model is classic conservative parallel DES specialized to this
// framework's topology. Shards interact only through CrossLinks (the
// inter-LAN trunks), each carrying a fixed positive latency; the global
// lookahead L is the minimum of those latencies. The coordinator runs
// window rounds: it finds Tmin, the earliest pending event across all
// shards, and lets every shard with work execute its events in
// [Tmin, Tmin+L) — in parallel, each shard single-threaded on its own
// Scheduler. Any message a shard sends across a link during the window is
// timestamped sender-now + link latency ≥ Tmin + L, i.e. at or beyond the
// window's end, so no in-window event can be affected by another shard's
// in-window execution: the windows are provably safe to run concurrently.
//
// Determinism at any worker width follows from two properties. First, each
// shard's own execution is sequential on its private Scheduler, so its
// event order never depends on what other shards do concurrently. Second,
// cross-shard messages are not delivered directly: they are staged in
// per-source outboxes (each appended only by its own shard), and at the
// round barrier the coordinator — alone, single-threaded — merges them in
// the fixed order (timestamp, source shard, send order within source) and
// injects them into the destination schedulers, which assign their event
// sequence numbers in that merge order. The merged order is a pure
// function of per-shard execution, so the whole simulation is a pure
// function of the seed: widths 1, 2 and 8 produce the same bytes.
package sim

import (
	"cmp"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ShardSeed derives the scheduler seed for shard i of a sharded run from
// the campus seed — the same FNV-1a construction DeriveRand uses, so shard
// streams are decorrelated from each other and from every single-LAN
// experiment run at the same seed.
func ShardSeed(seed int64, shard int) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(shard))
	h := uint64(offset64)
	for _, b := range buf {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range []byte("shard") {
		h = (h ^ uint64(b)) * prime64
	}
	return int64(h)
}

// crossMsg is one staged cross-shard delivery: fn runs on the destination
// shard at virtual instant at.
type crossMsg struct {
	at  time.Duration
	dst int
	fn  func()
}

// mergeKey orders staged messages at the barrier: (timestamp, source
// shard, send order within source). idx is the message's position in its
// source outbox, which the source appended sequentially, so the full key
// is unique and the merge order is a total order independent of how many
// workers executed the window.
type mergeKey struct {
	msg      crossMsg
	src, idx int
}

// compareMergeKeys is the barrier's total order over staged messages.
func compareMergeKeys(a, b mergeKey) int {
	if c := cmp.Compare(a.msg.at, b.msg.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// CrossLink is the one legal channel between shards: a unidirectional
// edge with a fixed positive latency, created by ShardedScheduler.Link.
// Send may only be called from code running on the source shard (inside
// one of its events); the callback runs on the destination shard after
// the link latency, never earlier than the current window's end.
type CrossLink struct {
	ss       *ShardedScheduler
	src, dst int
	latency  time.Duration
}

// Latency returns the link's one-way delay (the lookahead it contributes).
func (cl *CrossLink) Latency() time.Duration { return cl.latency }

// Send stages fn for execution on the destination shard at source-now +
// latency. It appends to the source shard's private outbox — no lock, no
// shared state — and the coordinator injects it at the next barrier.
func (cl *CrossLink) Send(fn func()) {
	ss := cl.ss
	at := ss.shards[cl.src].Now() + cl.latency
	ss.outbox[cl.src] = append(ss.outbox[cl.src], crossMsg{at: at, dst: cl.dst, fn: fn})
}

// ShardedScheduler coordinates a set of per-shard Schedulers through
// conservative-lookahead window rounds. Construct with NewSharded (fresh
// shard schedulers) or NewShardedOf (caller-provided, e.g. pooled ones).
type ShardedScheduler struct {
	shards    []*Scheduler
	outbox    [][]crossMsg // staged cross messages, one slice per source shard
	lookahead time.Duration
	workers   int
	stopped   atomic.Bool // set by Stop, possibly from a shard mid-window

	// Round state reused across rounds to keep the coordinator
	// allocation-free in steady state.
	active []int
	errs   []error
	merged []mergeKey
	pool   *workerSet // the worker set above width 1, kept across RunUntil

	// Engine statistics, kept unconditionally (cheap integer adds) and
	// mirrored to telemetry when Instrument was called.
	rounds    uint64
	syncWaits uint64
	crossSent uint64

	mRounds    *telemetry.Counter
	mSyncWaits *telemetry.Counter
	mCross     *telemetry.Counter
	hStall     *telemetry.Histogram
}

// NewSharded builds a coordinator over n fresh shard schedulers seeded
// with ShardSeed(seed, i).
func NewSharded(seed int64, n int) *ShardedScheduler {
	shards := make([]*Scheduler, n)
	for i := range shards {
		shards[i] = NewScheduler(ShardSeed(seed, i))
	}
	return NewShardedOf(shards)
}

// NewShardedOf builds a coordinator over caller-provided shard schedulers
// (already seeded — see ShardSeed). The caller must not run the schedulers
// itself while the coordinator owns them.
func NewShardedOf(shards []*Scheduler) *ShardedScheduler {
	if len(shards) == 0 {
		panic("sim: sharded scheduler needs at least one shard")
	}
	return &ShardedScheduler{
		shards:  shards,
		outbox:  make([][]crossMsg, len(shards)),
		workers: 1,
	}
}

// Shards returns the number of shards.
func (ss *ShardedScheduler) Shards() int { return len(ss.shards) }

// Shard returns shard i's scheduler. Components of LAN i are built on it;
// they must never touch another shard's scheduler.
func (ss *ShardedScheduler) Shard(i int) *Scheduler { return ss.shards[i] }

// SetWorkers sets how many OS-level workers execute each window's active
// shards (clamped to [1, shards]). Purely a wall-clock knob: results are
// byte-identical at every width. Above 1, RunUntil runs its windows on a
// worker set that lives for the call. Between windows the workers spin
// for at most 50µs before they park, but only while the width is at most
// GOMAXPROCS; a wider set always parks, so it never holds a P that a
// worker with shards to run needs.
func (ss *ShardedScheduler) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(ss.shards) {
		n = len(ss.shards)
	}
	ss.workers = n
}

// Workers returns the configured execution width.
func (ss *ShardedScheduler) Workers() int { return ss.workers }

// Link registers a cross-shard edge from src to dst with the given
// latency and returns its CrossLink. Latency must be positive: it is the
// lookahead bound that makes parallel windows safe, so a zero-latency
// inter-shard link would serialize the engine — construct such topologies
// as one shard instead.
func (ss *ShardedScheduler) Link(src, dst int, latency time.Duration) *CrossLink {
	if latency <= 0 {
		panic("sim: cross-shard link latency must be positive (it is the lookahead bound)")
	}
	if src == dst {
		panic("sim: cross-shard link endpoints must differ")
	}
	if ss.lookahead == 0 || latency < ss.lookahead {
		ss.lookahead = latency
	}
	return &CrossLink{ss: ss, src: src, dst: dst, latency: latency}
}

// Lookahead returns the conservative window length: the minimum registered
// link latency (zero when no links exist and shards are independent).
func (ss *ShardedScheduler) Lookahead() time.Duration { return ss.lookahead }

// Instrument attaches the engine's synchronization metrics to reg:
// round and wait counters plus the lookahead-stall histogram (how much
// virtual slack the conservative bound imposed on each waiting shard,
// per round). The per-shard schedulers are instrumented separately by
// whoever owns their registries.
func (ss *ShardedScheduler) Instrument(reg *telemetry.Registry) {
	ss.mRounds = reg.Counter("shard_rounds_total")
	ss.mSyncWaits = reg.Counter("shard_sync_waits_total")
	ss.mCross = reg.Counter("cross_lan_frames_total")
	ss.hStall = reg.Histogram("shard_lookahead_stall_seconds",
		[]float64{1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1e-1})
}

// Rounds returns how many window rounds have executed.
func (ss *ShardedScheduler) Rounds() uint64 { return ss.rounds }

// SyncWaits returns how many shard-rounds ended with the shard still
// holding pending work it was not allowed to run — the count of barrier
// waits the conservative window bound imposed.
func (ss *ShardedScheduler) SyncWaits() uint64 { return ss.syncWaits }

// CrossMessages returns how many cross-shard messages (trunk frames) have
// been merged and injected.
func (ss *ShardedScheduler) CrossMessages() uint64 { return ss.crossSent }

// Executed sums executed events across all shards.
func (ss *ShardedScheduler) Executed() uint64 {
	var n uint64
	for _, sh := range ss.shards {
		n += sh.Executed()
	}
	return n
}

// Stop halts the run at the next round barrier.
func (ss *ShardedScheduler) Stop() { ss.stopped.Store(true) }

// RunUntil advances every shard to horizon, executing all events with
// timestamps ≤ horizon in conservative-lookahead windows. Events a shard
// schedules beyond the horizon stay queued. Returns ErrStopped if the
// coordinator or any shard was stopped. Above width 1 the worker set
// starts at the first window with two or more active shards and is joined
// before RunUntil returns, on every path.
func (ss *ShardedScheduler) RunUntil(horizon time.Duration) error {
	ss.stopped.Store(false)
	defer func() { ss.pool.join() }() // ss.pool may be set by the first wide window
	for {
		if ss.stopped.Load() {
			return ErrStopped
		}
		// Tmin: the earliest pending event anywhere.
		var tmin time.Duration
		found := false
		for _, sh := range ss.shards {
			if t, ok := sh.NextEventAt(); ok && (!found || t < tmin) {
				tmin, found = t, true
			}
		}
		if !found || tmin > horizon {
			break
		}
		// Window end, exclusive. With no cross links the shards are fully
		// independent and one window runs everything; otherwise the
		// lookahead bounds it. Events exactly at the horizon must run
		// (RunUntil's inclusive contract), hence horizon+1ns.
		end := horizon + time.Nanosecond
		if ss.lookahead > 0 && tmin+ss.lookahead < end {
			end = tmin + ss.lookahead
		}
		ss.active = ss.active[:0]
		for i, sh := range ss.shards {
			if t, ok := sh.NextEventAt(); ok && t < end {
				ss.active = append(ss.active, i)
			}
		}
		ss.runWindow(end)
		for _, i := range ss.active {
			if ss.errs[i] != nil {
				return ss.errs[i]
			}
		}
		ss.barrier(end)
	}
	for _, sh := range ss.shards {
		sh.advanceTo(horizon)
	}
	return nil
}

// runWindow executes the active shards' events in [their-now, end). Width
// 1, and any window with a single active shard, is a plain loop on the
// coordinator — no goroutines, no atomics; wider windows go to the worker
// set.
func (ss *ShardedScheduler) runWindow(end time.Duration) {
	if cap(ss.errs) < len(ss.shards) {
		ss.errs = make([]error, len(ss.shards))
	}
	ss.errs = ss.errs[:len(ss.shards)]
	if ss.workers <= 1 || len(ss.active) < 2 {
		for _, i := range ss.active {
			ss.errs[i] = ss.shards[i].runBefore(end)
		}
		return
	}
	if ss.pool == nil || len(ss.pool.claims) != ss.workers {
		ss.pool = newWorkerSet(ss, ss.workers)
	}
	ss.pool.window(end)
}

// spinFor bounds how long a waiting worker (or the coordinator) polls
// before it parks. It covers the coordinator's barrier between two
// windows, so a worker that finished early is still spinning when the
// next window is released and starts it without a wake-up.
const spinFor = 50 * time.Microsecond

// spinAllowed reports whether a worker set of width w may spin while it
// waits: only when every worker can hold its own P. Beyond GOMAXPROCS a
// spinning worker would sit on the P that the worker it waits for needs.
func spinAllowed(w int) bool { return w <= runtime.GOMAXPROCS(0) }

// workerSet runs windows on w workers that live for one RunUntil call. The
// coordinator is worker 0; workers 1..w-1 (the helpers) wait between
// windows by spinning for at most spinFor and then parking, so a window
// starts without spawning a goroutine. Each worker claims its own home
// range of the active shards first, which keeps a shard on the same
// worker, and so on the same core with its heap, CAM and caches warm,
// window after window. Which worker runs a shard never changes what the
// shard executes.
type workerSet struct {
	ss     *ShardedScheduler
	claims claims
	limit  time.Duration // the current window's exclusive end
	spin   bool          // spinAllowed(w), fixed at start
	quit   bool          // set before the final release; helpers return

	// epoch counts released windows and finished counts helper window
	// completions; both restart at zero with the set. The coordinator
	// writes limit, claims and quit before bumping epoch, and helpers write
	// their shards' results before bumping finished, so each side reads the
	// other's writes after its wait.
	epoch, finished atomic.Uint64

	mu      sync.Mutex
	parked  sync.Cond // waiters that stopped spinning; each re-checks its count
	nparked int       // guarded by mu
	running bool      // helpers started and not yet joined
	wg      sync.WaitGroup
}

func newWorkerSet(ss *ShardedScheduler, w int) *workerSet {
	ws := &workerSet{ss: ss, claims: make(claims, w)}
	ws.parked.L = &ws.mu
	return ws
}

// window runs one window on every worker and returns once all of them are
// done with it, starting the helpers on the first call of a RunUntil.
func (ws *workerSet) window(end time.Duration) {
	if !ws.running {
		ws.start()
	}
	ws.limit = end
	ws.claims.split(ws.ss.active, len(ws.ss.shards))
	n := ws.epoch.Add(1)
	ws.notify()
	ws.work(0)
	ws.await(&ws.finished, n*uint64(len(ws.claims)-1))
}

func (ws *workerSet) start() {
	ws.running, ws.quit = true, false
	ws.spin = spinAllowed(len(ws.claims))
	ws.epoch.Store(0)
	ws.finished.Store(0)
	ws.wg.Add(len(ws.claims) - 1)
	for k := 1; k < len(ws.claims); k++ {
		go ws.helper(k)
	}
}

// join releases the helpers with quit set and waits for them to return.
// A nil or idle set has nothing to join.
func (ws *workerSet) join() {
	if ws == nil || !ws.running {
		return
	}
	ws.quit = true
	ws.epoch.Add(1)
	ws.notify()
	ws.wg.Wait()
	ws.running = false
}

// helper is worker k's loop: wait for the next window, run its claims,
// report completion. The last helper to finish a window wakes the
// coordinator if it parked.
func (ws *workerSet) helper(k int) {
	defer ws.wg.Done()
	helpers := uint64(len(ws.claims) - 1)
	for seen := uint64(1); ; seen++ {
		ws.await(&ws.epoch, seen)
		if ws.quit {
			return
		}
		ws.work(k)
		if ws.finished.Add(1) == seen*helpers {
			ws.notify()
		}
	}
}

// work runs active shards for worker k until no claim is left.
func (ws *workerSet) work(k int) {
	ss := ws.ss
	for {
		i, ok := ws.claims.next(k)
		if !ok {
			return
		}
		shard := ss.active[i]
		ss.errs[shard] = ss.shards[shard].runBefore(ws.limit)
	}
}

// await returns once ctr reaches target: it polls for at most spinFor
// when spinning is allowed, then parks. The count is re-checked under mu
// before every park, and notify takes mu after a count moved, so a
// release between the check and the park is never lost.
func (ws *workerSet) await(ctr *atomic.Uint64, target uint64) {
	if ctr.Load() >= target || ws.spin && spinUntil(ctr, target) {
		return
	}
	ws.mu.Lock()
	for ctr.Load() < target {
		ws.nparked++
		ws.parked.Wait()
		ws.nparked--
	}
	ws.mu.Unlock()
}

// spinUntil polls ctr until it reaches target or spinFor has passed, and
// reports whether it got there.
func spinUntil(ctr *atomic.Uint64, target uint64) bool {
	start := time.Now()
	for i := 1; ctr.Load() < target; i++ {
		if i%128 == 0 && time.Since(start) > spinFor {
			return false
		}
	}
	return true
}

// notify wakes every parked waiter after epoch or finished moved; a
// waiter whose own count has not reached its target parks again.
func (ws *workerSet) notify() {
	ws.mu.Lock()
	if ws.nparked > 0 {
		ws.parked.Broadcast()
	}
	ws.mu.Unlock()
}

// claims hands out one window's active indices to w workers, one
// two-ended range per worker. The owner takes its range from the front;
// a worker whose own range is empty steals from the back of the others'.
// At width 2 worker 0 takes shards from the front of the active list and
// worker 1 takes the rest from the back half, stealing worker 0's last
// shards once its own half is done. The split point follows the load,
// while every shard away from it keeps its worker from one window to the
// next.
type claims []claimRange

// claimRange is one worker's home range of active indices, [front, back),
// packed in one word so the owner and a thief claim with a single CAS. It
// fills a cache line so that workers never write the same line.
type claimRange struct {
	fb atomic.Uint64
	_  [56]byte
}

// split gives worker k the active entries whose shard falls in the k-th of
// len(c) equal slices of the shard IDs [0, shards). Active is sorted, so
// each range is contiguous, and a shard's home does not depend on which
// other shards are active.
func (c claims) split(active []int, shards int) {
	i := 0
	for k := range c {
		lo := i
		bound := (k + 1) * shards / len(c)
		for i < len(active) && active[i] < bound {
			i++
		}
		c[k].fb.Store(uint64(lo)<<32 | uint64(i))
	}
}

// next claims worker k's next active index: the front of its own range,
// else the back of the nearest non-empty range after it.
func (c claims) next(k int) (int, bool) {
	if i, ok := c[k].take(true); ok {
		return i, true
	}
	for d := 1; d < len(c); d++ {
		if i, ok := c[(k+d)%len(c)].take(false); ok {
			return i, true
		}
	}
	return 0, false
}

// take claims the range's front index (the owner) or its back index (a
// thief).
func (r *claimRange) take(front bool) (int, bool) {
	for {
		v := r.fb.Load()
		f, b := v>>32, v&(1<<32-1)
		if f >= b {
			return 0, false
		}
		next, i := v-1, int(b-1)
		if front {
			next, i = v+1<<32, int(f)
		}
		if r.fb.CompareAndSwap(v, next) {
			return i, true
		}
	}
}

// barrier runs after every window: merge the staged cross messages in
// their canonical order, inject them into the destination shards, and
// update the synchronization statistics. Single-threaded by construction —
// the window's workers have all joined.
func (ss *ShardedScheduler) barrier(end time.Duration) {
	ss.rounds++
	ss.mRounds.Inc()
	ss.merged = ss.merged[:0]
	for src := range ss.outbox {
		for idx, m := range ss.outbox[src] {
			ss.merged = append(ss.merged, mergeKey{msg: m, src: src, idx: idx})
		}
		ss.outbox[src] = ss.outbox[src][:0]
	}
	if len(ss.merged) > 0 {
		m := ss.merged
		slices.SortFunc(m, compareMergeKeys)
		for i := range m {
			ss.shards[m[i].msg.dst].At(m[i].msg.at, m[i].msg.fn)
			m[i].msg.fn = nil // don't pin the closure past injection
		}
		ss.crossSent += uint64(len(m))
		ss.mCross.Add(uint64(len(m)))
	}
	// A shard that still holds work below some future window had to stop
	// at the conservative bound and wait; the stall is the virtual slack
	// between its last executed event and the bound.
	if ss.lookahead > 0 {
		for _, i := range ss.active {
			if _, ok := ss.shards[i].NextEventAt(); ok {
				ss.syncWaits++
				ss.mSyncWaits.Inc()
				if ss.hStall != nil {
					ss.hStall.Observe((end - ss.shards[i].Now()).Seconds())
				}
			}
		}
	}
}
