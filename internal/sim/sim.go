// Package sim provides the deterministic discrete-event engine that drives
// every simulated LAN in this framework.
//
// A Scheduler owns a virtual clock and a priority queue of timed events.
// Components (links, host stacks, attackers, detectors) schedule callbacks at
// future virtual instants; Run drains the queue in (time, sequence) order so
// that identical seeds and scenarios always replay identically. The engine is
// single-threaded by design: determinism is what makes the evaluation
// reproducible, and event-driven execution makes thousand-host scenarios run
// in milliseconds of wall time. (Experiments still exploit every core by
// running many independent schedulers at once — see internal/eval.RunTrials.)
//
// Scheduling is the engine's hottest path: every frame hop, retry timer and
// probe window is one event. To keep it allocation-free in steady state the
// scheduler recycles executed events through a free list and hands out Timer
// handles by value; a per-event generation counter keeps stale handles inert
// after their event has been recycled. The queue itself is a hand-rolled
// 4-ary heap: compared to container/heap it halves the tree depth, drops
// the interface dispatch per sift step, and pops in exactly the same
// (time, sequence) order — the comparator is a total order, so replay
// determinism is untouched.
//
// Deep queues add FIFO lanes in front of the heap. An event scheduled with
// a relative delay d (After, AfterTask, Every and its re-arm) lands at
// now+d with a fresh, larger seq; now never moves backwards, so events
// scheduled with one delay arrive already in (time, sequence) order. A lane
// keeps them in a ring in arrival order and only its head sits in the
// heap, so a resolution storm's tens of thousands of same-delay events
// cost the heap a handful of entries. The global minimum is always a heap
// entry (every lane's head is ≤ the rest of its lane), so the pop order is
// exactly the heap-only order.
package sim

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/telemetry"
)

// ErrStopped is returned by Run when the simulation was halted explicitly
// with Stop before the horizon or event budget was reached.
var ErrStopped = errors.New("simulation stopped")

// Events are allocated in slabs of 2^eventSlabShift and addressed by a
// compact uint32 ref (slab index · slab size + offset). Slab allocation
// amortizes the ramp-up cost (one allocation per 64 in-flight events
// instead of one each) and keeps a scheduler's event population on
// contiguous memory; the refs let the heap and the free list hold plain
// integers instead of pointers, so the scheduler's two hottest loops (heap
// sifts, event recycling) write no pointers at all — no GC write barriers,
// and nothing in either structure for the garbage collector to scan.
const (
	eventSlabShift = 6
	eventSlabSize  = 1 << eventSlabShift
	eventSlabMask  = eventSlabSize - 1
)

// Task is a unit of work scheduled without a closure allocation: holders of
// a reusable object (netsim's pooled frame transits) implement Run and pass
// the object itself to AtTask/AfterTask, so the hot path schedules by
// storing one pointer instead of capturing variables into a fresh closure.
type Task interface {
	Run()
}

// event is a scheduled callback. Events are pooled: once executed (or
// drained after cancellation) an event returns to the scheduler's free list
// and a later At/After/Every call may reuse it. gen is bumped on every
// recycle so Timer handles created for a previous incarnation no-op.
// Exactly one of fn and task is set.
type event struct {
	at     time.Duration
	seq    uint64 // tiebreaker: FIFO among events at the same instant
	fn     func()
	task   Task          // closure-free alternative to fn
	ref    uint32        // this event's slot in the scheduler's slab table
	dead   bool          // cancelled
	queued bool          // in the queue (not yet popped)
	lane   uint8         // 1 + index of the lane holding it; 0 = the heap
	gen    uint64        // incarnation counter, bumped on recycle
	period time.Duration // >0: re-arm after each firing (Every)
	cause  uint64        // causal span active when the event was scheduled
}

// run invokes the event's work, whichever form it was scheduled in.
func (ev *event) run() {
	if ev.fn != nil {
		ev.fn()
		return
	}
	ev.task.Run()
}

// heapEntry is one heap slot: the (at, seq) ordering key is stored inline
// so sift comparisons touch only the contiguous heap slice, never the
// events themselves — on flood-heavy workloads the pointer chase per
// comparison was the single largest CPU line. seq and the event's slab ref
// pack into one word (seq in the high bits, so comparing the packed word
// compares seq), keeping entries at 16 bytes and the whole heap
// pointer-free: sift steps move two words and the GC never scans the
// queue. schedule guards the 32-bit seq bound — at ~100ns of simulated
// work per event a single trial would need days of wall time to reach it.
type heapEntry struct {
	at     time.Duration
	seqRef uint64 // seq<<32 | ref
}

// less orders entries by (at, seq); seq is unique, so this is a total
// order and heap pops are deterministic regardless of heap shape.
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seqRef < b.seqRef
}

// eventQueue is a 4-ary min-heap of events ordered by (at, seq). Four
// children per node halves the depth of the equivalent binary heap, and the
// inline keys keep sifts on one cache-resident array.
type eventQueue []heapEntry

// push inserts e and sifts it up.
func (q *eventQueue) push(e heapEntry) {
	h := *q
	i := len(h)
	h = append(h, e)
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes the minimum entry.
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	last := h[n]
	*q = h[:n]
	if n > 0 {
		h[:n].fillRoot(last)
	}
}

// fillRoot drops e into the root's place (the old root is gone) and
// restores the heap order.
//
// Bottom-up sift (Wegener): walk the hole from the root to a leaf along the
// min-child path — 3 compares per level instead of 4, because e is never
// compared on the way down — then bubble e up from the leaf. A pop's e
// comes from the array's tail, which under a time-ordered workload holds
// the latest keys, so the upward pass almost always stops immediately.
// Keys are strictly totally ordered ((at, seq), seq unique), so the pop
// sequence is identical to the top-down variant's.
func (h eventQueue) fillRoot(e heapEntry) {
	n := len(h)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(h[min]) {
				min = c
			}
		}
		h[i] = h[min]
		i = min
	}
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// A lane is a FIFO of queued events that were all scheduled with one
// relative delay, so they arrived in (at, seq) order: its head is its
// minimum, and only the head is in the heap. Entries keep their keys
// inline in a power-of-two ring that grows by doubling and is kept across
// Reset, so a warmed-up lane schedules without allocating.
type lane struct {
	delay time.Duration
	ring  []heapEntry
	head  int // ring index of the head
	n     int // queued entries
}

// append adds e at the tail and reports whether it became the head.
func (l *lane) append(e heapEntry) bool {
	if l.n == len(l.ring) {
		ring := make([]heapEntry, max(2*len(l.ring), 64))
		for i := 0; i < l.n; i++ {
			ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = e
	l.n++
	return l.n == 1
}

// Lane table shape. A delay hashes to a home lane and probes up to
// laneProbes lanes from there: an empty lane takes whatever delay arrives,
// a busy one only its own, and an event that finds no lane goes to the
// heap. A populated LAN uses a handful of delays (one per link latency and
// frame size, the resolver's retry interval, traffic periods), so that is
// rare and costs only a heap entry. Below laneMinDepth queued events every
// event goes to the heap: a shallow heap is already cheap, and the lane
// bookkeeping would only add to it.
const (
	laneBits     = 4
	laneCount    = 1 << laneBits
	laneProbes   = 4
	laneMinDepth = 64
)

// Timer is a handle to a scheduled event that can be cancelled. It is a
// plain value: copying is cheap, the zero value is an inert no-op handle,
// and a handle outliving its event stays safe — when the event is recycled
// its generation moves on and the stale handle's Stop does nothing.
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the event. It reports whether the event had not yet fired
// (mirroring time.Timer.Stop semantics). Calling Stop from inside a periodic
// callback created with Every cancels the rescheduling cycle.
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	pending := t.ev.queued
	t.ev.dead = true
	return pending
}

// Scheduler is a deterministic discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	now       time.Duration
	queue     eventQueue // the heap: At events, lane heads, shallow-queue events
	lanes     [laneCount]lane
	pending   int // queued events, in the heap and in lanes
	seq       uint64
	seed      int64
	rng       *rand.Rand
	rootSrc   *lazySource       // rng's source, typed for the Int63n fast path
	streamSeq map[string]uint64 // per-name DeriveRand call counters

	// Derived stream objects, recycled across Reset: a reset scheduler
	// re-derives the same construction-ordered streams, so the rand.Rand
	// wrappers (and their ALFG registers, via lazySource.spare) are reused
	// by call order and only ever allocated on first growth.
	streams    []*rand.Rand
	streamUsed int
	stopped    bool
	executed   uint64
	slabs      [][]event // all events ever carved, addressed by event.ref
	free       []uint32  // refs of recycled events awaiting reuse

	// scratch holds opaque per-layer recycling caches owned by the layers
	// built on this scheduler (netsim parks its transit free lists in one
	// slot, arppkt its frame arena in another; see ScratchKey). Unlike every other field
	// it survives Reset: the caches hold only inert recycled shells, and
	// carrying them across trials is the point — a pooled scheduler's next
	// LAN starts with warm free lists instead of re-carving them.
	scratch [numScratchSlots]any

	// Causal context: the span ID under which the current event runs.
	// schedule captures it into each new event and the run loops restore it
	// before every callback, so causality flows across timer hops for free —
	// one uint64 copy per event, no allocation, zero when tracing is off.
	cause    uint64
	traceRec any // opaque recorder attachment, see SetTraceRecorder

	// Telemetry handles; nil (no-op) unless Instrument is called.
	mExecuted  *telemetry.Counter
	mCancelled *telemetry.Counter
	mQueueHigh *telemetry.Gauge
}

// NewScheduler returns a scheduler whose clock starts at zero and whose
// random stream is derived from seed.
func NewScheduler(seed int64) *Scheduler {
	src := &lazySource{seed: seed}
	return &Scheduler{
		seed:    seed,
		rootSrc: src,
		rng:     rand.New(src),
		queue:   make(eventQueue, 0, 512),
	}
}

// Reset returns the scheduler to its just-constructed state for a new seed,
// keeping the event slabs and the queue/free-list capacity it has already
// grown. Experiments run thousands of short trials, each on a fresh
// scheduler; recycling one through Reset skips re-carving the event
// population and re-growing the queue, which together dominated trial
// setup allocation. A reset scheduler is observationally identical to
// NewScheduler(seed): the clock, sequence counter, random streams and
// causal state all restart, and every parked event has its generation
// bumped so Timer handles from the previous life stay inert.
func (s *Scheduler) Reset(seed int64) {
	s.now = 0
	s.queue = s.queue[:0]
	for i := range s.lanes {
		s.lanes[i].head, s.lanes[i].n = 0, 0
	}
	s.pending = 0
	s.seq = 0
	s.seed = seed
	s.rng.Seed(seed) // re-lazies the root source in place
	clear(s.streamSeq)
	s.streamUsed = 0
	s.stopped = false
	s.executed = 0
	s.cause = 0
	s.traceRec = nil
	s.mExecuted, s.mCancelled, s.mQueueHigh = nil, nil, nil
	s.free = s.free[:0]
	for _, slab := range s.slabs {
		for i := range slab {
			ev := &slab[i]
			ev.gen++
			ev.fn = nil
			ev.task = nil
			ev.dead = false
			ev.queued = false
			ev.period = 0
			ev.cause = 0
			s.free = append(s.free, ev.ref)
		}
	}
}

// Instrument attaches the scheduler to a telemetry registry: events
// executed, cancelled events drained, and the queue-depth high-water mark.
// It also makes the registry's spans and events read this virtual clock.
// Passing nil detaches (handles become no-ops again).
func (s *Scheduler) Instrument(reg *telemetry.Registry) {
	s.mExecuted = reg.Counter("sim_events_executed_total")
	s.mCancelled = reg.Counter("sim_events_cancelled_total")
	s.mQueueHigh = reg.Gauge("sim_queue_depth_highwater")
	reg.SetNow(s.Now)
}

// Now returns the current virtual time (elapsed since simulation start).
func (s *Scheduler) Now() time.Duration { return s.now }

// ScratchKey names one of the scheduler's opaque recycling-cache slots.
// Each slot belongs to the one layer that pools objects in it across Reset.
type ScratchKey uint8

const (
	// ScratchTasks is netsim's slot: transit/flood task free lists and
	// parked CAM storage.
	ScratchTasks ScratchKey = iota
	// ScratchFrames is arppkt's slot: the ARP frame arena.
	ScratchFrames
	// ScratchDatagrams is netsim's second slot: the IPv4 frame and trunk
	// packet arena.
	ScratchDatagrams
	// ScratchCaches is stack's slot: the storage of recycled ARP caches.
	ScratchCaches

	numScratchSlots
)

// Scratch returns the opaque recycling-cache slot for k (nil until
// SetScratch).
func (s *Scheduler) Scratch(k ScratchKey) any { return s.scratch[k] }

// SetScratch installs the opaque recycling-cache slot for k. Slots survive
// Reset so recycled shells carry over to the scheduler's next life; the
// installing layer must therefore never park anything trial-specific in one.
func (s *Scheduler) SetScratch(k ScratchKey, v any) { s.scratch[k] = v }

// Rand exposes the scheduler's seeded random stream so that every stochastic
// choice in a scenario flows from the one seed.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Int63n draws from the same stream as Rand().Int63n(n), bypassing the
// rand.Rand wrapper's two interface dispatches — it replicates math/rand's
// rejection algorithm over the scheduler's own source, so the consumed
// draws (and therefore every later value on the stream) are identical.
// It exists for per-frame jitter, the single hottest draw site. n must be
// positive.
func (s *Scheduler) Int63n(n int64) int64 {
	src := s.rootSrc
	if n&(n-1) == 0 { // n is a power of two
		return src.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := src.Int63()
	for v > max {
		v = src.Int63()
	}
	return v % n
}

// DeriveRand returns an independent deterministic random stream for the
// named consumer, derived from the scheduler's seed. Repeated calls with the
// same name yield distinct streams keyed by call order, so deterministic
// construction (links in attach order, fault injectors in plan order) maps
// each consumer to a stable stream. Isolated streams are what keep one
// consumer's draws from perturbing another's: adding a fault injector, or a
// lossy link, must never shift the random sequence an existing experiment
// observes through Rand or through its own derived stream.
func (s *Scheduler) DeriveRand(name string) *rand.Rand {
	if s.streamSeq == nil {
		s.streamSeq = make(map[string]uint64)
	}
	n := s.streamSeq[name]
	s.streamSeq[name]++
	// FNV-1a over seed||n||name, inlined: hash.Hash64 would escape and
	// stream derivation runs once per link and injector per trial.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(s.seed))
	binary.LittleEndian.PutUint64(buf[8:], n)
	h := uint64(offset64)
	for _, b := range buf {
		h = (h ^ uint64(b)) * prime64
	}
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	seed := int64(h)
	if s.streamUsed < len(s.streams) {
		// Recycle a stream object from a previous life of this scheduler
		// (see Reset). Seed restarts the rand.Rand and re-lazies the
		// source, so the draw sequence matches a fresh stream exactly.
		r := s.streams[s.streamUsed]
		s.streamUsed++
		r.Seed(seed)
		return r
	}
	r := rand.New(&lazySource{seed: seed})
	s.streams = append(s.streams, r)
	s.streamUsed++
	return r
}

// lazySource defers the lagged-Fibonacci seeding of a random source until
// the first draw (and takes the seeded register from alfg.go's seed cache
// when the seed has been used before). Stream derivation is a construction-time
// property (every link and fault injector gets one), but many derived
// streams are never drawn from — a lossy link that carries no traffic, an
// injector whose window never opens — and seeding those dominated
// scheduler construction in the fault-sweep experiments. The draw sequence
// is identical to an eagerly seeded source, just paid for on first use.
// It implements rand.Source64 so rand.Rand consumes draws through exactly
// the same code path as with rand.NewSource.
type lazySource struct {
	seed  int64
	src   *alfgSource // typed, not rand.Source64: draws skip a dispatch
	spare *alfgSource // register retired by Seed, reused by the next init
}

func (l *lazySource) init() {
	src := l.spare
	if src == nil {
		src = new(alfgSource)
	} else {
		l.spare = nil
	}
	alfgSeed(src, l.seed)
	l.src = src
}

func (l *lazySource) Int63() int64 {
	if l.src == nil {
		l.init()
	}
	return l.src.Int63()
}

func (l *lazySource) Uint64() uint64 {
	if l.src == nil {
		l.init()
	}
	return l.src.Uint64()
}

func (l *lazySource) Seed(seed int64) {
	l.seed = seed
	if l.src != nil {
		l.spare = l.src // keep the ~5KB register for reuse
		l.src = nil
	}
}

// Cause returns the causal span ID the currently executing event carries
// (zero when no trace is active). Components use it as the parent for spans
// they open; the propagation itself needs no participation from them.
func (s *Scheduler) Cause() uint64 { return s.cause }

// SetCause replaces the active causal span ID and returns the previous one,
// so instrumentation can scope a span to a synchronous section and restore
// the caller's context afterwards.
func (s *Scheduler) SetCause(id uint64) (prev uint64) {
	prev = s.cause
	s.cause = id
	return prev
}

// SetTraceRecorder attaches an opaque causal recorder to the scheduler.
// The sim package never looks inside it — components that understand the
// concrete type (internal/telemetry/causal) retrieve it with TraceRecorder
// and type-assert. Keeping the attachment opaque spares this hot package an
// import it does not need.
func (s *Scheduler) SetTraceRecorder(rec any) { s.traceRec = rec }

// TraceRecorder returns the attachment set by SetTraceRecorder (nil when
// tracing was never enabled).
func (s *Scheduler) TraceRecorder() any { return s.traceRec }

// Executed returns the number of events run so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending returns the number of events currently queued (including ones that
// have been cancelled but not yet drained).
func (s *Scheduler) Pending() int { return s.pending }

// eventAt resolves a slab ref to its event. Slab backing arrays are never
// reallocated, so the returned pointer is stable for the scheduler's life.
func (s *Scheduler) eventAt(ref uint32) *event {
	return &s.slabs[ref>>eventSlabShift][ref&eventSlabMask]
}

// alloc takes an event off the free list, carving a fresh slab when empty.
func (s *Scheduler) alloc() *event {
	if n := len(s.free) - 1; n >= 0 {
		ref := s.free[n]
		s.free = s.free[:n]
		return s.eventAt(ref)
	}
	base := uint32(len(s.slabs)) << eventSlabShift
	slab := make([]event, eventSlabSize)
	for i := range slab {
		slab[i].ref = base + uint32(i)
	}
	s.slabs = append(s.slabs, slab)
	for i := eventSlabSize - 1; i >= 1; i-- {
		s.free = append(s.free, base+uint32(i))
	}
	return &slab[0]
}

// release recycles a finished event onto the free list. The generation bump
// comes first so every outstanding Timer for this incarnation goes inert.
// fn and task are cleared so a parked event retains no transient objects
// (closures capture frames; a stale reference kept live until reuse
// inflates the GC mark set).
func (s *Scheduler) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.task = nil
	ev.dead = false
	ev.period = 0
	ev.cause = 0
	s.free = append(s.free, ev.ref)
}

// schedule queues fn (or task) at the (already clamped) absolute instant
// at. d is the relative delay it was scheduled with, or -1 for At.
func (s *Scheduler) schedule(at, d, period time.Duration, fn func(), task Task) Timer {
	ev := s.alloc()
	ev.at, ev.fn, ev.task, ev.period, ev.cause = at, fn, task, period, s.cause
	s.enqueue(ev, d)
	return Timer{ev: ev, gen: ev.gen}
}

// enqueue gives ev (whose at is set) the next sequence number and queues it:
// in the lane for its delay d when the queue is deep and that lane is free
// for d, otherwise (and always for d < 0) in the heap.
func (s *Scheduler) enqueue(ev *event, d time.Duration) {
	s.seq++
	if s.seq >= 1<<32 {
		panic("sim: event sequence exceeded 2^32 (heap key packing bound)")
	}
	ev.seq = s.seq
	ev.queued = true
	ev.lane = 0
	s.pending++
	if s.mQueueHigh != nil {
		s.mQueueHigh.SetMax(float64(s.pending))
	}
	e := heapEntry{at: ev.at, seqRef: ev.seq<<32 | uint64(ev.ref)}
	if d >= 0 && s.pending > laneMinDepth {
		home := uint64(d) * 0x9E3779B97F4A7C15 >> (64 - laneBits)
		for k := uint64(0); k < laneProbes; k++ {
			i := (home + k) & (laneCount - 1)
			l := &s.lanes[i]
			if l.n == 0 {
				l.delay = d
			} else if l.delay != d {
				continue
			}
			ev.lane = uint8(i + 1)
			if !l.append(e) {
				return // behind the lane's head, which is in the heap
			}
			break
		}
	}
	s.queue.push(e)
}

// popNext removes and returns the earliest queued event. When it heads a
// lane, the lane's next entry takes its place in the heap.
func (s *Scheduler) popNext() *event {
	ev := s.eventAt(uint32(s.queue[0].seqRef))
	if ev.lane == 0 {
		s.queue.pop()
	} else {
		l := &s.lanes[ev.lane-1]
		l.head = (l.head + 1) & (len(l.ring) - 1)
		if l.n--; l.n > 0 {
			s.queue.fillRoot(l.ring[l.head])
		} else {
			s.queue.pop()
		}
	}
	s.pending--
	ev.queued = false
	return ev
}

// At schedules fn to run at absolute virtual time at. Events scheduled in the
// past run "now" (at the current clock reading) but never move the clock
// backwards. It returns a Timer that can cancel the event.
func (s *Scheduler) At(at time.Duration, fn func()) Timer {
	if at < s.now {
		at = s.now
	}
	return s.schedule(at, -1, 0, fn, nil)
}

// AtTask schedules t.Run at absolute virtual time at: At without the
// closure. The sharded engine injects cross-shard messages with it.
func (s *Scheduler) AtTask(at time.Duration, t Task) Timer {
	if at < s.now {
		at = s.now
	}
	return s.schedule(at, -1, 0, nil, t)
}

// After schedules fn to run d after the current virtual instant.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, d, 0, fn, nil)
}

// AfterTask schedules t.Run d after the current virtual instant. It is
// After without the closure: callers that already own a reusable object
// (netsim's pooled frame transits) schedule it directly, so the frame hot
// path allocates nothing per hop.
func (s *Scheduler) AfterTask(d time.Duration, t Task) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, d, 0, nil, t)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Timer is stopped or the run ends. The callback observes
// the clock already advanced to its firing instant. One event object serves
// the whole cycle: the run loop re-arms it after each firing.
func (s *Scheduler) Every(period time.Duration, fn func()) Timer {
	if period <= 0 {
		period = time.Nanosecond
	}
	return s.schedule(s.now+period, period, period, fn, nil)
}

// finish recycles a just-executed event, or re-arms it if it is periodic
// and its cycle has not been stopped (possibly by its own callback).
func (s *Scheduler) finish(ev *event) {
	if ev.period > 0 && !ev.dead {
		ev.at = s.now + ev.period
		s.enqueue(ev, ev.period)
		return
	}
	s.release(ev)
}

// Stop halts the run after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// drain executes queued events in (at, seq) order while the earliest is at
// or before last, and returns ErrStopped as soon as an executed event has
// called Stop — also when it was the last one queued. The clock is left at
// the last executed event.
func (s *Scheduler) drain(last time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 && s.queue[0].at <= last {
		ev := s.popNext()
		if ev.dead {
			s.mCancelled.Inc()
			s.release(ev)
			continue
		}
		s.now = ev.at
		s.executed++
		s.mExecuted.Inc()
		s.cause = ev.cause
		ev.run()
		s.cause = 0
		s.finish(ev)
		if s.stopped {
			return ErrStopped
		}
	}
	return nil
}

// RunUntil executes events in order until the virtual clock would pass
// horizon, the queue drains, or Stop is called. Events scheduled exactly at
// the horizon still run. It returns ErrStopped if halted explicitly, with
// the clock at the stopping event; otherwise the clock ends at horizon.
func (s *Scheduler) RunUntil(horizon time.Duration) error {
	if err := s.drain(horizon); err != nil {
		return err
	}
	s.advanceTo(horizon)
	return nil
}

// NextEventAt returns the virtual instant of the earliest queued event and
// whether one exists. Cancelled-but-undrained events count: their position
// is deterministic, so a window bound computed from them is too.
func (s *Scheduler) NextEventAt() (time.Duration, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// runBefore executes events strictly before limit — the sharded engine's
// window primitive. Unlike RunUntil it treats the bound as exclusive and
// does not advance the clock to it: the clock stays at the last executed
// event, so a later window (or advanceTo) owns the remaining span.
func (s *Scheduler) runBefore(limit time.Duration) error {
	return s.drain(limit - 1)
}

// advanceTo moves the clock forward to t (never backwards), mirroring what
// RunUntil does at its horizon once a sharded run's final window has drained.
func (s *Scheduler) advanceTo(t time.Duration) {
	if s.now < t {
		s.now = t
	}
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() error {
	return s.drain(math.MaxInt64)
}
