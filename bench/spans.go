package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"time"
)

// span is one timed call into a layer entry point, recorded by the harness
// around the call. Spans of one operation share Op; Parent is 0 for the
// operation span itself.
type span struct {
	Name   string             `json:"name"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans is the untraced recorder: every method is a no-op.
type spans struct {
	epoch time.Time
	all   []span
	open  []int // indices into all of the spans not yet ended, outermost first
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// beginOp opens the operation span for operation i.
func (s *spans) beginOp(i int) {
	if s == nil {
		return
	}
	s.all = append(s.all, span{Name: "op", ID: len(s.all) + 1, Op: i, Start: s.now()})
	s.open = append(s.open[:0], len(s.all)-1)
}

// begin opens a child span of the innermost open span.
func (s *spans) begin(name string) {
	if s == nil {
		return
	}
	parent := s.all[s.open[len(s.open)-1]]
	s.all = append(s.all, span{Name: name, ID: len(s.all) + 1, Parent: parent.ID, Op: parent.Op, Start: s.now()})
	s.open = append(s.open, len(s.all)-1)
}

// end closes the innermost open span.
func (s *spans) end() {
	if s == nil {
		return
	}
	s.all[s.open[len(s.open)-1]].End = s.now()
	s.open = s.open[:len(s.open)-1]
}

// do runs fn inside a span.
func (s *spans) do(name string, fn func() error) error {
	s.begin(name)
	err := fn()
	s.end()
	return err
}

// attr adds v to an attribute of the open operation span: the summed time
// and call counts of per-record calls too many to record as spans.
func (s *spans) attr(key string, v float64) {
	if s == nil {
		return
	}
	op := &s.all[s.open[0]]
	if op.Attrs == nil {
		op.Attrs = map[string]float64{}
	}
	op.Attrs[key] += v
}

// lastMillis returns the duration of the most recent ended span named name
// in the open operation, in milliseconds.
func (s *spans) lastMillis(name string) float64 {
	if s == nil {
		return 0
	}
	for j := len(s.all) - 1; j > s.open[0]; j-- {
		if s.all[j].Name == name {
			return ms(s.all[j].dur())
		}
	}
	return 0
}

func (s *spans) now() int64 { return int64(time.Since(s.epoch)) }

// layerTimes averages, per operation, each span name's total and self time
// (its duration minus the time its children cover; "op" is the operation
// span's own), and the operation span's attributes. selfGap is the largest
// relative difference between an operation's summed self times and its wall
// time.
func (s *spans) layerTimes() (total, self map[string]float64, attrs map[string]float64, selfGap float64) {
	total, self, attrs = map[string]float64{}, map[string]float64{}, map[string]float64{}
	childTime := map[int]time.Duration{}
	for _, sp := range s.all {
		if sp.Parent != 0 {
			childTime[sp.Parent] += sp.dur()
		}
	}
	ops := 0
	opSelf := map[int]time.Duration{}
	opWall := map[int]time.Duration{}
	for _, sp := range s.all {
		own := sp.dur() - childTime[sp.ID]
		opSelf[sp.Op] += own
		if sp.Parent == 0 {
			ops++
			opWall[sp.Op] = sp.dur()
			self["op"] += ms(own)
			for k, v := range sp.Attrs {
				attrs[k] += v
			}
			continue
		}
		total[sp.Name] += ms(sp.dur())
		self[sp.Name] += ms(own)
	}
	for op, wall := range opWall {
		selfGap = max(selfGap, math.Abs(float64(opSelf[op]-wall))/float64(wall))
	}
	for _, m := range []map[string]float64{total, self, attrs} {
		for k := range m {
			m[k] /= float64(ops)
		}
	}
	return total, self, attrs, selfGap
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// write stores the spans as NDJSON, one span per line.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range s.all {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
