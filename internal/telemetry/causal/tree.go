package causal

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Index is a lookup snapshot of the retained spans. The Recorder's tree
// queries build one on demand (the hot recording path never does); a
// caller running several queries over one recording builds it once with
// Recorder.Index and queries that.
type Index struct {
	spans    []Span      // oldest first
	byID     map[ID]int  // position in spans
	children map[ID][]ID // sorted by child ID; built on first use
}

// Index snapshots the retained spans for repeated queries. The nil
// Recorder yields an empty index.
func (r *Recorder) Index() *Index {
	spans := r.Spans()
	ix := &Index{spans: spans, byID: make(map[ID]int, len(spans))}
	for i, sp := range spans {
		ix.byID[sp.ID] = i
	}
	return ix
}

// span returns the indexed span with the given ID.
func (ix *Index) span(id ID) (Span, bool) {
	i, ok := ix.byID[id]
	if !ok {
		return Span{}, false
	}
	return ix.spans[i], true
}

// kids returns the IDs of id's retained children in span-ID order.
func (ix *Index) kids(id ID) []ID {
	if ix.children == nil {
		ix.children = make(map[ID][]ID)
		for _, sp := range ix.spans {
			if sp.Parent != 0 {
				ix.children[sp.Parent] = append(ix.children[sp.Parent], sp.ID)
			}
		}
		for _, kids := range ix.children {
			sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		}
	}
	return ix.children[id]
}

// Span returns the retained span with the given ID.
func (r *Recorder) Span(id ID) (Span, bool) {
	if r == nil {
		return Span{}, false
	}
	for i := 0; i < r.n; i++ {
		sp := r.ring[(r.head+i)%len(r.ring)]
		if sp.ID == id {
			return sp, true
		}
	}
	return Span{}, false
}

// Roots returns the retained spans that start a trace (no retained parent),
// oldest first.
func (r *Recorder) Roots() []Span {
	if r == nil {
		return nil
	}
	ix := r.Index()
	return r.Find(func(sp Span) bool {
		if sp.Parent == 0 {
			return true
		}
		_, ok := ix.byID[sp.Parent]
		return !ok
	})
}

// ChildrenOf returns the retained spans whose parent is id, in span-ID
// order.
func (r *Recorder) ChildrenOf(id ID) []Span {
	if r == nil {
		return nil
	}
	ix := r.Index()
	kids := ix.kids(id)
	out := make([]Span, 0, len(kids))
	for _, k := range kids {
		sp, _ := ix.span(k)
		out = append(out, sp)
	}
	return out
}

// PathToRoot returns the ancestor chain of id ordered root-first and ending
// with id itself. The chain stops early if an ancestor has been evicted.
func (r *Recorder) PathToRoot(id ID) []Span {
	if r == nil {
		return nil
	}
	return r.Index().PathToRoot(id)
}

// PathToRoot is Recorder.PathToRoot over the snapshot.
func (ix *Index) PathToRoot(id ID) []Span {
	var rev []Span
	for cur := id; cur != 0; {
		sp, ok := ix.span(cur)
		if !ok {
			break
		}
		rev = append(rev, sp)
		cur = sp.Parent
	}
	out := make([]Span, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// Descendants returns every retained span below id (not including id), in
// span-ID order.
func (r *Recorder) Descendants(id ID) []Span {
	if r == nil {
		return nil
	}
	ix := r.Index()
	var out []Span
	var walk func(ID)
	walk = func(cur ID) {
		for _, k := range ix.kids(cur) {
			sp, _ := ix.span(k)
			out = append(out, sp)
			walk(k)
		}
	}
	walk(id)
	return out
}

// Breakdown attributes the latency from a trace's root to the given span
// across pipeline stages. It walks the ancestor chain root→…→span and
// charges each gap between consecutive chain spans' start instants to the
// earlier span's kind — so the wait between a link span and the switch span
// it delivers into is charged to "link", the wait between a scheme's
// inspection span and the alert it finally raises to "scheme". Total is the
// root's start to the span's end. ok is false when the span (or any chain)
// is not retained.
func (r *Recorder) Breakdown(id ID) (stages map[string]time.Duration, total time.Duration, ok bool) {
	return r.Index().Breakdown(id)
}

// Breakdown is Recorder.Breakdown over the snapshot.
func (ix *Index) Breakdown(id ID) (stages map[string]time.Duration, total time.Duration, ok bool) {
	chain := ix.PathToRoot(id)
	if len(chain) == 0 {
		return nil, 0, false
	}
	stages = make(map[string]time.Duration)
	for i := 0; i+1 < len(chain); i++ {
		stages[chain[i].Kind] += chain[i+1].Start - chain[i].Start
	}
	total = chain[len(chain)-1].End - chain[0].Start
	return stages, total, true
}

// WriteTree renders the trace containing root as an indented hop-by-hop
// tree with virtual timestamps relative to the root span's start:
//
//	attack/poison-reply +0s
//	  tx/arp-reply +0s
//	    link/transit +0s..120µs
//	      switch/ingress +120µs
//	        cache/changed +120µs
//
// Attrs render sorted. Unknown roots render nothing.
func (r *Recorder) WriteTree(w io.Writer, root ID) error {
	if r == nil {
		return nil
	}
	ix := r.Index()
	base, ok := ix.span(root)
	if !ok {
		return nil
	}
	var render func(id ID, depth int) error
	render = func(id ID, depth int) error {
		sp, _ := ix.span(id)
		if err := writeTreeLine(w, sp, base.Start, depth); err != nil {
			return err
		}
		for _, k := range ix.kids(id) {
			if err := render(k, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return render(root, 0)
}

// writeTreeLine formats one node of the rendered tree.
func writeTreeLine(w io.Writer, sp Span, base time.Duration, depth int) error {
	var sb strings.Builder
	sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(&sb, "%s/%s +%v", sp.Kind, sp.Name, sp.Start-base)
	if sp.End > sp.Start {
		fmt.Fprintf(&sb, "..%v", sp.End-base)
	}
	for _, a := range sortAttrs(sp.Attrs) {
		fmt.Fprintf(&sb, " %s=%s", a.Key, a.Value)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}
