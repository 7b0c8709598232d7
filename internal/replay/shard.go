package replay

import (
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/trace"
)

// Ingest: the one loop from a Source to the switch, at every worker
// width. Injection order is sacred — the virtual clock and every scheme's
// state machine depend on it — so only parsing is parallel, and the
// pipeline never runs more goroutines than there are cores to run them:
//
//	stream ──fill──▶ round k ──claim chunks──▶ parse ──in order──▶ inject
//
// The stream is cut into rounds of at most roundItems records and about
// roundBytes raw bytes; each round is cut into chunks, the unit of parse
// work. The injecting goroutine (the engine's, the caller of Run) walks
// round k's chunks in order: a parsed chunk is injected, an unclaimed one
// it claims and parses itself, and only a chunk a helper is still parsing
// makes it wait. Helpers — at most GOMAXPROCS−1 of them, so the injector
// always has a core — keep fillAhead rounds read ahead of it, claim chunks
// from the oldest filled round, and read further ahead when none are
// left. Whoever holds the single fill turn reads; the injector fills too
// when its round is not read yet and nobody is reading, which is all of
// ingest at width 1 or GOMAXPROCS 1: there are no helpers, and the
// injector reads, parses and injects each round itself. A record is thus
// injected only once its whole round has been read.
//
// A claim names its round by sequence number (the round's generation):
// round k lives in slot k mod depth until it is injected, and only
// rounds in [injected, filled) can be claimed from, so a helper can never
// take a chunk of a slot's next fill. Output is byte-identical at any
// width and any GOMAXPROCS: they change who parses a chunk, never what is
// injected when.
const (
	roundItems  = 4096
	roundBytes  = 1 << 20 // raw bytes at which a round closes
	chunkItems  = 128
	chunkBytes  = 32 << 10
	roundsDepth = 4 // rounds in flight; bounds pipeline memory
	fillAhead   = 2 // rounds a helper reads ahead before it parses

	// maxChunks bounds a round's chunk count: each chunk but the last
	// closes on chunkItems items or chunkBytes bytes, and a round holds at
	// most roundItems items and roundBytes bytes, or one longer item.
	maxChunks = roundItems/chunkItems + roundBytes/chunkBytes + 2
)

// span locates one raw item inside a round's buffer.
type span struct {
	off, end int
	at       time.Duration
}

// round is one pipeline batch. Its storage is kept on roundPool between
// Runs, so a steady-state Run allocates no round storage at all. recs[i]
// and errs[i] are item i's parse output; recs[i].Wire is carved from slab
// at item i's own offsets, so parsing never allocates a wire buffer:
// both a pcap copy and an NDJSON base64 decode fit in the raw item's
// length.
type round struct {
	buf    []byte
	slab   []byte
	items  []span
	chunks []int // chunks[c] is the item index that ends chunk c
	recs   []trace.WireRecord
	errs   []error
	parsed []bool

	claimed int   // chunks handed out; guarded by pipeline.mu
	readErr error // non-EOF read failure after the round's last item
}

// roundPool keeps round storage across Runs and engines: arpanalyze and
// the benchmark build one engine per capture, and a pipeline's rounds are
// ≥ 1 MiB apiece. It is a plain bounded free list, not a sync.Pool, so a
// GC cannot empty it between Runs.
var roundPool struct {
	mu   sync.Mutex
	free []*round
}

// roundPoolMax bounds the free list: two pipelines' worth.
const roundPoolMax = 2 * roundsDepth

// roundBufMax is the largest buffer a pooled round keeps. A fill reads at
// most roundBytes plus the one item that overflows them, so only a long
// item (up to the source's own per-item cap) grows a buffer past this;
// the grown buffer is dropped rather than pooled.
const roundBufMax = roundBytes + roundBytes/4

func getRound() *round {
	roundPool.mu.Lock()
	defer roundPool.mu.Unlock()
	if n := len(roundPool.free); n > 0 {
		r := roundPool.free[n-1]
		roundPool.free = roundPool.free[:n-1]
		return r
	}
	return &round{
		buf:    make([]byte, 0, roundBufMax),
		items:  make([]span, 0, roundItems),
		chunks: make([]int, 0, maxChunks),
		recs:   make([]trace.WireRecord, roundItems),
		errs:   make([]error, roundItems),
		parsed: make([]bool, maxChunks),
	}
}

func putRound(r *round) {
	if cap(r.buf) > roundBufMax {
		r.buf = make([]byte, 0, roundBufMax)
	}
	if cap(r.slab) > roundBufMax {
		r.slab = nil
	}
	clear(r.errs) // an error may pin a parsed item's detail
	roundPool.mu.Lock()
	defer roundPool.mu.Unlock()
	if len(roundPool.free) < roundPoolMax {
		roundPool.free = append(roundPool.free, r)
	}
}

// pipeline is one Run's shared state. Everything below mu is
// guarded by it; a round's items, recs and slab are written only by the
// goroutine holding its fill turn or a claim on the chunk, and read by the
// injector after the chunk is marked parsed.
type pipeline struct {
	src Source

	mu    sync.Mutex
	work  sync.Cond // helpers park here when there is nothing to claim or fill
	ready sync.Cond // the injector parks here for a fill or a helper's chunk

	slots    [roundsDepth]*round
	depth    uint64 // slots in use: roundsDepth, or 1 without helpers
	filled   uint64 // rounds read: round k is readable for k < filled
	injected uint64 // rounds injected and released for refill
	filling  bool   // someone holds the fill turn
	end      bool   // the stream ended (EOF or read error): no more rounds
	quit     bool   // the injector is done; helpers exit
	idle     int    // helpers parked on work
	injWait  bool   // the injector is parked on ready

	// carry is a read item that would have pushed its round past
	// roundBytes: it opens the next round. It aliases the tail of the
	// previous fill's buffer, which nothing writes until that slot's next
	// fill, depth fills later; at depth 1 that is the fill that copies the
	// carry to the buffer's head (an overlap-safe copy) before reading on.
	carry   []byte
	carryAt time.Duration

	helpers sync.WaitGroup
}

// ingest drives the pipeline with min(max(workers, 1), GOMAXPROCS) − 1
// helpers. Injection runs on the caller's goroutine, which is the
// engine's, so inject stays single-threaded.
func (e *Engine) ingest(src Source, workers int) error {
	p := &pipeline{src: src}
	p.work.L = &p.mu
	p.ready.L = &p.mu
	helpers := min(max(workers, 1), runtime.GOMAXPROCS(0)) - 1
	// Without helpers the injector fills each round only once it has
	// injected the one before, so one slot holds the one round in flight
	// and a cold Run takes a quarter of the round storage from the heap.
	// The carry then aliases the tail of the slot's own buffer, which the
	// next fill copies to its head before reading past it.
	p.depth = roundsDepth
	if helpers == 0 {
		p.depth = 1
	}
	p.helpers.Add(helpers)
	for i := 0; i < helpers; i++ {
		go p.help()
	}
	err := p.run(e)
	p.mu.Lock()
	p.quit = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.helpers.Wait()
	for i, r := range p.slots {
		if r != nil {
			putRound(r)
			p.slots[i] = nil
		}
	}
	return err
}

// run walks the rounds in stream order on the engine's goroutine,
// injecting parsed chunks and parsing whatever no helper has claimed yet,
// and returns the first read error once every item before it is injected.
func (p *pipeline) run(e *Engine) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := uint64(0); ; k++ {
		for k >= p.filled {
			switch {
			case p.end:
				return nil
			case !p.filling:
				p.fill()
			default:
				p.injWait = true
				p.ready.Wait()
			}
		}
		r := p.slots[k%p.depth]
		for next := 0; next < len(r.chunks); {
			switch {
			case r.parsed[next]:
				last := next + 1
				for last < len(r.chunks) && r.parsed[last] {
					last++
				}
				p.mu.Unlock()
				e.injectItems(r, r.chunkStart(next), r.chunks[last-1])
				p.mu.Lock()
				next = last
			case r.claimed < len(r.chunks):
				c := r.claimed
				r.claimed++
				p.mu.Unlock()
				r.parse(p.src, c)
				p.mu.Lock()
				r.parsed[c] = true
			default:
				// A helper holds chunk next.
				p.injWait = true
				p.ready.Wait()
			}
		}
		if r.readErr != nil {
			return r.readErr
		}
		p.injected++
		if p.idle > 0 && !p.end && !p.filling {
			p.work.Signal()
		}
	}
}

// injectItems injects items [from, to) of a parsed round in order.
func (e *Engine) injectItems(r *round, from, to int) {
	for i := from; i < to; i++ {
		if r.errs[i] != nil {
			e.stats.Malformed++
			e.mMalformed.Inc()
			continue
		}
		e.inject(&r.recs[i])
	}
}

// help is a helper's loop. Reading is the one serial stage, so a helper
// first keeps fillAhead rounds read ahead of the injector; then it parses
// the oldest claimable chunk; then it reads further ahead while a slot is
// free; and only then parks until the injector frees a slot or a fill
// lands.
func (p *pipeline) help() {
	defer p.helpers.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.quit {
		canFill := !p.filling && !p.end && p.filled-p.injected < p.depth
		if canFill && p.filled-p.injected < fillAhead {
			p.fill()
			continue
		}
		if r, c := p.claim(); r != nil {
			p.mu.Unlock()
			r.parse(p.src, c)
			p.mu.Lock()
			r.parsed[c] = true
			p.wakeInjector()
			continue
		}
		if canFill {
			p.fill()
			continue
		}
		p.idle++
		p.work.Wait()
		p.idle--
	}
}

// claim hands out the first unclaimed chunk of the oldest filled round.
func (p *pipeline) claim() (*round, int) {
	for k := p.injected; k < p.filled; k++ {
		r := p.slots[k%p.depth]
		if r.claimed < len(r.chunks) {
			r.claimed++
			return r, r.claimed - 1
		}
	}
	return nil, 0
}

func (p *pipeline) wakeInjector() {
	if p.injWait {
		p.injWait = false
		p.ready.Signal()
	}
}

// fill takes the fill turn and reads round p.filled, unlocking mu around
// the reads. The caller has checked the turn is free, the stream has not
// ended, and the round's slot is released.
func (p *pipeline) fill() {
	p.filling = true
	slot := &p.slots[p.filled%p.depth]
	if *slot == nil {
		*slot = getRound()
	}
	r := *slot
	p.mu.Unlock()
	end := p.read(r)
	p.mu.Lock()
	p.filling = false
	p.filled++
	p.end = end
	p.wakeInjector()
	if p.idle > 0 {
		p.work.Broadcast()
	}
}

// read fills r from the stream and cuts it into chunks. A round closes at
// roundItems items or once its raw bytes would pass roundBytes; the item
// that would push it past opens the next round instead, alone if it is
// longer than roundBytes itself. It reports whether the stream ended.
func (p *pipeline) read(r *round) (end bool) {
	r.buf = r.buf[:0]
	r.items = r.items[:0]
	r.chunks = r.chunks[:0]
	r.claimed = 0
	r.readErr = nil
	chunkOff := 0
	add := func(off int, at time.Duration) {
		r.items = append(r.items, span{off: off, end: len(r.buf), at: at})
		if len(r.items)-r.chunkStart(len(r.chunks)) == chunkItems || len(r.buf)-chunkOff >= chunkBytes {
			r.chunks = append(r.chunks, len(r.items))
			chunkOff = len(r.buf)
		}
	}
	if p.carry != nil {
		r.buf = append(r.buf, p.carry...)
		add(0, p.carryAt)
		p.carry = nil
	}
	var err error
	for len(r.items) < roundItems {
		off := len(r.buf)
		var at time.Duration
		if r.buf, at, err = p.src.ReadRaw(r.buf); err != nil {
			break
		}
		if len(r.items) > 0 && len(r.buf) > roundBytes {
			p.carry, p.carryAt = r.buf[off:], at
			r.buf = r.buf[:off]
			break
		}
		add(off, at)
	}
	if n := len(r.items); n > 0 && r.chunkStart(len(r.chunks)) < n {
		r.chunks = append(r.chunks, n)
	}
	clear(r.parsed[:len(r.chunks)])
	if cap(r.slab) < len(r.buf) {
		r.slab = make([]byte, cap(r.buf))
	}
	if err != nil && err != io.EOF {
		r.readErr = err
	}
	return err != nil
}

// chunkStart is the first item index of chunk c.
func (r *round) chunkStart(c int) int {
	if c == 0 {
		return 0
	}
	return r.chunks[c-1]
}

// parse decodes chunk c's items into their outputs. Each record's wire
// buffer is the slab at its own item's offsets, as long as the raw item,
// so the decode lands in place without allocating.
func (r *round) parse(src Source, c int) {
	for i := r.chunkStart(c); i < r.chunks[c]; i++ {
		it := r.items[i]
		rec := &r.recs[i]
		rec.Wire = r.slab[it.off:it.off:it.end]
		r.errs[i] = src.Parse(r.buf[it.off:it.end], it.at, rec)
	}
}
