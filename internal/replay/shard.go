package replay

import (
	"io"
	"sync"
	"time"

	"repro/internal/trace"
)

// Sharded ingest. Injection order is sacred — the virtual clock and every
// scheme's state machine depend on it — so only parsing is parallel:
//
//	reader ──rounds──▶ workers (parse, one contiguous range each)
//	            │                         │
//	            └────────▶ merger ◀───────┘ (capture order, inject)
//
// The reader cuts the stream into rounds of roundItems raw records. Each
// worker parses its own contiguous range of a round, the k-th of
// len(workers) equal slices, into the round's per-item outputs. The merger
// waits for a round's workers, then walks the items in order and injects
// on the engine's goroutine. Output is therefore byte-identical at any
// worker width: the width changes who parses, never what is injected
// when.
const (
	roundItems  = 4096
	roundsDepth = 4 // rounds in flight; bounds pipeline memory
	maxWorkers  = 64
)

// span locates one raw item inside a round's shared buffer.
type span struct {
	off, end int
	at       time.Duration
}

// round is one pipeline batch, recycled through a free list. recs[i] and
// errs[i] are item i's parse output; worker k writes only its own range.
type round struct {
	buf     []byte
	items   []span
	recs    []trace.WireRecord
	errs    []error
	wg      sync.WaitGroup
	readErr error // non-EOF reader failure, surfaced after the round drains
}

func newRound() *round {
	return &round{
		buf:   make([]byte, 0, 256*roundItems),
		items: make([]span, 0, roundItems),
		recs:  make([]trace.WireRecord, 0, roundItems),
		errs:  make([]error, 0, roundItems),
	}
}

func (r *round) reset() {
	r.buf = r.buf[:0]
	r.items = r.items[:0]
	r.readErr = nil
}

// runSharded drives the pipeline; the merger runs on the caller's
// goroutine, which is the engine's, so inject stays single-threaded.
func (e *Engine) runSharded(src Source, workers int) error {
	if workers > maxWorkers {
		workers = maxWorkers
	}

	free := make(chan *round, roundsDepth)
	for i := 0; i < roundsDepth; i++ {
		free <- newRound()
	}
	toWorker := make([]chan *round, workers)
	for w := range toWorker {
		toWorker[w] = make(chan *round, roundsDepth)
	}
	toMerge := make(chan *round, roundsDepth)

	// Reader: sequential raw reads, round dispatch.
	go func() {
		defer func() {
			for _, ch := range toWorker {
				close(ch)
			}
			close(toMerge)
		}()
		for {
			r := <-free
			r.reset()
			var err error
			for len(r.items) < roundItems {
				off := len(r.buf)
				var at time.Duration
				r.buf, at, err = src.ReadRaw(r.buf)
				if err != nil {
					break
				}
				r.items = append(r.items, span{off: off, end: len(r.buf), at: at})
			}
			if err != nil && err != io.EOF {
				r.readErr = err
			}
			// Size the outputs by reslicing, not appending: elements from
			// earlier rounds keep their Wire buffers, so steady-state
			// parsing reuses them instead of reallocating.
			n := len(r.items)
			if cap(r.recs) < n {
				r.recs = make([]trace.WireRecord, n)
				r.errs = make([]error, n)
			}
			r.recs = r.recs[:n]
			r.errs = r.errs[:n]
			r.wg.Add(workers)
			for _, ch := range toWorker {
				ch <- r
			}
			toMerge <- r
			if err != nil {
				return
			}
		}
	}()

	// Workers: parse their own range of each round; pure CPU, no engine
	// state.
	for w := 0; w < workers; w++ {
		go func(w int) {
			for r := range toWorker[w] {
				n := len(r.items)
				for i := w * n / workers; i < (w+1)*n/workers; i++ {
					it := r.items[i]
					r.errs[i] = src.Parse(r.buf[it.off:it.end], it.at, &r.recs[i])
				}
				r.wg.Done()
			}
		}(w)
	}

	// Merger: capture order is item order.
	var firstErr error
	for r := range toMerge {
		r.wg.Wait()
		for i := range r.items {
			if r.errs[i] != nil {
				e.stats.Malformed++
				e.mMalformed.Inc()
				continue
			}
			e.inject(&r.recs[i])
		}
		if r.readErr != nil && firstErr == nil {
			firstErr = r.readErr
		}
		free <- r
	}
	return firstErr
}
