package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refScheduler is the reference the lane property test holds the Scheduler
// to: a plain list of queued events, popped by a linear scan for the least
// (at, seq). It assigns seq, clamps, re-arms, drains cancelled events and
// stops exactly as the Scheduler documents, with no heap and no lanes.
type refScheduler struct {
	now     time.Duration
	seq     uint64
	queue   []*refEvent
	stopped bool
}

type refEvent struct {
	at     time.Duration
	seq    uint64
	fn     func()
	period time.Duration
	dead   bool
	queued bool
}

func (r *refScheduler) schedule(at, period time.Duration, fn func()) *refEvent {
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, fn: fn, period: period, queued: true}
	r.queue = append(r.queue, ev)
	return ev
}

func (r *refScheduler) RunUntil(horizon time.Duration) error {
	r.stopped = false
	for len(r.queue) > 0 {
		min := 0
		for i, ev := range r.queue {
			if ev.at < r.queue[min].at || ev.at == r.queue[min].at && ev.seq < r.queue[min].seq {
				min = i
			}
		}
		ev := r.queue[min]
		if ev.at > horizon {
			break
		}
		r.queue = append(r.queue[:min], r.queue[min+1:]...)
		ev.queued = false
		if ev.dead {
			continue
		}
		r.now = ev.at
		ev.fn()
		if ev.period > 0 && !ev.dead {
			r.seq++
			ev.at, ev.seq, ev.queued = r.now+ev.period, r.seq, true
			r.queue = append(r.queue, ev)
		}
		if r.stopped {
			return ErrStopped
		}
	}
	if r.now < horizon {
		r.now = horizon
	}
	return nil
}

// laneAPI is the part of the scheduling API a lane program drives, over
// either implementation.
type laneAPI struct {
	now      func() time.Duration
	at       func(time.Duration, func()) func() bool
	after    func(time.Duration, func()) func() bool
	task     func(time.Duration, func()) func() bool
	every    func(time.Duration, func()) func() bool
	runUntil func(time.Duration) error
	stop     func()
	pending  func() int
	reset    func()
}

type funcTask func()

func (f funcTask) Run() { f() }

func schedulerAPI(s *Scheduler) laneAPI {
	return laneAPI{
		now:      s.Now,
		at:       func(t time.Duration, fn func()) func() bool { return s.At(t, fn).Stop },
		after:    func(d time.Duration, fn func()) func() bool { return s.After(d, fn).Stop },
		task:     func(d time.Duration, fn func()) func() bool { return s.AfterTask(d, funcTask(fn)).Stop },
		every:    func(d time.Duration, fn func()) func() bool { return s.Every(d, fn).Stop },
		runUntil: s.RunUntil,
		stop:     s.Stop,
		pending:  s.Pending,
		reset:    func() { s.Reset(1) },
	}
}

func referenceAPI(r *refScheduler) laneAPI {
	stopper := func(ev *refEvent) func() bool {
		return func() bool {
			if ev.dead {
				return false
			}
			ev.dead = true
			return ev.queued
		}
	}
	after := func(d time.Duration, fn func()) func() bool {
		if d < 0 {
			d = 0
		}
		return stopper(r.schedule(r.now+d, 0, fn))
	}
	return laneAPI{
		now: func() time.Duration { return r.now },
		at: func(t time.Duration, fn func()) func() bool {
			if t < r.now {
				t = r.now
			}
			return stopper(r.schedule(t, 0, fn))
		},
		after: after,
		task:  after,
		every: func(d time.Duration, fn func()) func() bool {
			return stopper(r.schedule(r.now+d, d, fn))
		},
		runUntil: r.RunUntil,
		stop:     func() { r.stopped = true },
		pending:  func() int { return len(r.queue) },
		reset:    func() { *r = refScheduler{} },
	}
}

// laneDelays are the fixed delays a lane program reuses, so lanes fill;
// jittered delays are drawn around them.
var laneDelays = []time.Duration{0, 50 * time.Microsecond, 51 * time.Microsecond, time.Millisecond, time.Second}

// runLaneProgram runs the random program seed over api and returns its
// transcript: every firing as (clock, event id, firing number), the return
// of every Stop and run, and Pending() after every step. Event ids count
// schedule calls in program order, so they follow seq order; a transcript
// equal to the reference's means the same events fired in the same
// (at, seq) order with the same queue depth throughout.
func runLaneProgram(seed int64, api laneAPI) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	var stops []func() bool
	nextID := 0
	delay := func() time.Duration {
		d := laneDelays[rng.Intn(len(laneDelays))]
		if rng.Intn(4) == 0 { // jittered: a delay no lane is keyed by
			d += time.Duration(rng.Intn(20000))
		}
		return d
	}
	var schedule func(depth int)
	body := func(id, depth int) func() {
		fired := 0
		return func() {
			fired++
			out = append(out, fmt.Sprintf("fire %d#%d @%v", id, fired, api.now()))
			if depth > 3 {
				return
			}
			switch r := rng.Intn(16); {
			case r < 6:
				for n := rng.Intn(3); n >= 0; n-- {
					schedule(depth + 1)
				}
			case r < 8 && len(stops) > 0:
				out = append(out, fmt.Sprintf("inner stop %v", stops[rng.Intn(len(stops))]()))
			case r == 8:
				api.stop()
			}
		}
	}
	schedule = func(depth int) {
		id := nextID
		nextID++
		fn := body(id, depth)
		var stop func() bool
		switch rng.Intn(10) {
		case 0:
			stop = api.at(api.now()+time.Duration(rng.Intn(3000)-1000)*time.Microsecond, fn)
		case 1, 2, 3:
			stop = api.after(delay(), fn)
		case 4, 5, 6, 7:
			stop = api.task(delay(), fn)
		default:
			if depth > 0 { // periodic cycles only from the top level
				stop = api.after(delay(), fn)
				break
			}
			stop = api.every(laneDelays[1+rng.Intn(len(laneDelays)-1)], fn)
		}
		stops = append(stops, stop)
	}
	for step := 0; step < 60; step++ {
		switch r := rng.Intn(20); {
		case r < 8: // a burst deep enough to use the lanes
			for n := rng.Intn(200); n >= 0; n-- {
				schedule(0)
			}
		case r < 11 && len(stops) > 0:
			for n := rng.Intn(40); n >= 0; n-- {
				out = append(out, fmt.Sprintf("stop %v", stops[rng.Intn(len(stops))]()))
			}
		case r < 19:
			window := time.Duration(rng.Intn(3000)) * time.Microsecond
			if rng.Intn(8) == 0 {
				window = 2 * time.Second
			}
			err := api.runUntil(api.now() + window)
			out = append(out, fmt.Sprintf("run %v @%v", errors.Is(err, ErrStopped), api.now()))
		default:
			api.reset()
			stops = stops[:0]
			out = append(out, "reset")
		}
		out = append(out, fmt.Sprintf("pending %d", api.pending()))
	}
	return out
}

// TestLaneOrderMatchesReference: random programs of At, After, AfterTask,
// Every and Timer.Stop over a few fixed delays and jittered ones, with
// RunUntil windows, stops from inside events, resumes and Reset, fire the
// same events in the same (at, seq) order on the Scheduler as on the
// lane-free reference, with equal Pending() after every step.
func TestLaneOrderMatchesReference(t *testing.T) {
	s := NewScheduler(1)
	api := schedulerAPI(s)
	laned := 0 // steps that ended with events in lanes
	api.pending = func() int {
		for i := range s.lanes {
			if s.lanes[i].n > 0 {
				laned++
				break
			}
		}
		return s.Pending()
	}
	for seed := int64(1); seed <= 60; seed++ {
		s.Reset(1)
		got := runLaneProgram(seed, api)
		want := runLaneProgram(seed, referenceAPI(&refScheduler{}))
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("seed %d: transcripts diverge at line %d: got %q, want %v", seed, i, got[i], want[min(i, len(want)-1)])
				}
			}
			t.Fatalf("seed %d: transcript has %d lines, want %d", seed, len(got), len(want))
		}
	}
	if laned == 0 {
		t.Fatal("no step ended with a lane in use: the programs never exercised the lanes")
	}
	t.Logf("%d steps ended with events in lanes", laned)
}
