package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/eval"
	"repro/internal/eval/experiments"
	"repro/internal/telemetry"
)

// evalTrials is the trial count `make regen` renders evaluation_output.txt
// at, so each pass can be checked against the committed file.
const evalTrials = 10

// shapeOnly names the artifacts that embed host-timed ECDSA figures and
// real signature lengths; they are checked for shape, not bytes.
var shapeOnly = map[string]bool{"table4": true, "figure3": true}

// evalSuite regenerates the whole evaluation once per operation, as one
// `make regen` process does: every registered experiment at 10 trials with
// a fresh result cache and a 2-wide trial pool, in a seed-shuffled order.
type evalSuite struct {
	seed   int64
	golden []byte
	descs  []*experiments.Descriptor // render order
}

func newEvalSuite(seed int64, root string) (workload, error) {
	golden, err := os.ReadFile(filepath.Join(root, "evaluation_output.txt"))
	if err != nil {
		return nil, err
	}
	eval.SetParallelism(2)
	return &evalSuite{seed: seed, golden: golden, descs: experiments.List()}, nil
}

func (e *evalSuite) run(i int, sp *spans) (opResult, error) {
	eval.EnableResultCache(telemetry.New())
	defer eval.DisableResultCache()
	out := make([][]byte, len(e.descs))
	order := rand.New(rand.NewSource(e.seed*1_000_003 + int64(i))).Perm(len(e.descs))
	for _, k := range order {
		d := e.descs[k]
		sp.begin("eval." + d.ID)
		var buf bytes.Buffer
		err := produce(d, &buf)
		sp.end()
		if err != nil {
			return opResult{}, fmt.Errorf("%s: %w", d.ID, err)
		}
		out[k] = buf.Bytes()
	}
	return opResult{check: func() error { return e.check(out) }}, nil
}

// produce renders one experiment exactly as arpbench prints it.
func produce(d *experiments.Descriptor, buf *bytes.Buffer) error {
	p, err := d.Params(evalTrials, nil)
	if err != nil {
		return err
	}
	a, err := d.Produce(p)
	if err != nil {
		return err
	}
	if err := a.Render(buf); err != nil {
		return err
	}
	buf.WriteByte('\n')
	return nil
}

// check compares the rendered pass, in render order, with
// evaluation_output.txt: byte for byte, except the shape-only artifacts.
func (e *evalSuite) check(out [][]byte) error {
	rest := e.golden
	for k, d := range e.descs {
		got := out[k]
		n := lineEnd(rest, bytes.Count(got, []byte("\n")))
		if n < 0 {
			return fmt.Errorf("%s: evaluation_output.txt ends early", d.ID)
		}
		want := rest[:n]
		if shapeOnly[d.ID] {
			if err := sameShape(got, want); err != nil {
				return fmt.Errorf("%s: %w", d.ID, err)
			}
		} else if !bytes.Equal(got, want) {
			return fmt.Errorf("%s differs from evaluation_output.txt: %s", d.ID, firstDiff(got, want))
		}
		rest = rest[n:]
	}
	if len(rest) > 0 {
		return fmt.Errorf("evaluation_output.txt has %d bytes after the last experiment", len(rest))
	}
	return nil
}

// lineEnd returns the offset just past the n-th newline of b, -1 if b has
// fewer.
func lineEnd(b []byte, n int) int {
	off := 0
	for ; n > 0; n-- {
		j := bytes.IndexByte(b[off:], '\n')
		if j < 0 {
			return -1
		}
		off += j + 1
	}
	return off
}

// sameShape requires equal line counts and the same first field on every
// line: titles, row labels and series names, not the timed values.
func sameShape(got, want []byte) error {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	if len(g) != len(w) {
		return fmt.Errorf("%d lines, evaluation_output.txt has %d", len(g), len(w))
	}
	for i := range g {
		gf, wf := bytes.Fields(g[i]), bytes.Fields(w[i])
		if len(gf) != len(wf) || len(gf) > 0 && !bytes.Equal(gf[0], wf[0]) {
			return fmt.Errorf("line %d is %q, evaluation_output.txt has %q", i+1, g[i], w[i])
		}
	}
	return nil
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d is %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
