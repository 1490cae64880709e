package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync/atomic"

	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

// numInputs is the size of the generated input set; requests cycle
// through it.
const numInputs = 8

// makeInputs draws the input tensors from the seed: uniform [0,1) pixels.
func makeInputs(w *workload, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]*tensor.Tensor, numInputs)
	for i := range ins {
		t := tensor.New(1, 3, w.Size, w.Size)
		d := t.Data()
		for j := range d {
			d[j] = rng.Float32()
		}
		ins[i] = t
	}
	return ins
}

// references runs every input through a serial session on an unoptimized
// build of the model: models.Build + PlaceDevices + NewPlan, with no graph
// optimization, quantization or kernel selection. It shares none of the
// fusion, GEMM, batching or routing code the benchmark measures.
func references(w *workload, ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	m := models.Build(w.Model, w.Size, false)
	graph.PlaceDevices(m.Graph, graph.PlacementOptions{})
	plan, err := runtime.NewPlan(m.Graph)
	if err != nil {
		return nil, fmt.Errorf("reference plan: %w", err)
	}
	s := plan.NewSession()
	refs := make([]*tensor.Tensor, len(ins))
	for i, in := range ins {
		outs, err := s.Run(map[string]*tensor.Tensor{"data": in})
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		refs[i] = outs[0].Clone()
	}
	return refs, nil
}

// checker verifies served outputs. fp32 workloads must be bit-identical to
// the compiled model's first serial run on the same input (the golden),
// and every golden must lie within the workload's tolerance of the
// reference. fp16 outputs must be finite, and the reference's top-1 class
// must score their maximum. A comparison that cannot be made (shape
// mismatch, non-finite reference) fails.
type checker struct {
	w      *workload
	refs   []*tensor.Tensor
	golds  []*tensor.Tensor
	wrong  atomic.Int64
	maxErr float64 // largest golden-vs-reference relative error seen
}

// maxPrinted caps how many mismatches a run prints.
const maxPrinted = 20

func (c *checker) fail(input int, msg string) error {
	if c.wrong.Add(1) <= maxPrinted {
		fmt.Fprintf(os.Stderr, "MISMATCH workload=%s input=%d %s\n", c.w.Name, input, msg)
	}
	return fmt.Errorf("input %d: %s", input, msg)
}

// setGoldens records the serial-run outputs and checks each against the
// reference.
func (c *checker) setGoldens(golds []*tensor.Tensor) error {
	c.golds = golds
	var firstErr error
	for i, g := range golds {
		if err := c.againstRef(i, g); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// againstRef compares one output with input i's reference.
func (c *checker) againstRef(i int, out *tensor.Tensor) error {
	ref := c.refs[i]
	if !out.Shape().Equal(ref.Shape()) {
		return c.fail(i, fmt.Sprintf("shape %v, reference %v", out.Shape(), ref.Shape()))
	}
	od, rd := out.Data(), ref.Data()
	for k, v := range rd {
		if !finite(v) {
			return c.fail(i, fmt.Sprintf("element %d: reference is %g, cannot compare", k, v))
		}
	}
	if c.w.DType == "fp16" {
		for k, v := range od {
			if !finite(v) {
				return c.fail(i, fmt.Sprintf("element %d: got %g, want finite", k, v))
			}
		}
		// The reference's top-1 class must score the output's maximum. An
		// exact tie in the output (binary16 rounding can merge two close
		// scores) still ranks it first, so ties are not broken by index.
		if top, want := argmax(od), argmax(rd); od[want] != od[top] {
			return c.fail(i, fmt.Sprintf("element %d: reference top-1 class scores %g, below class %d at %g",
				want, od[want], top, od[top]))
		}
		return nil
	}
	e, k := relErr(out, ref)
	if e > c.maxErr {
		c.maxErr = e
	}
	if !(e <= c.w.Tol) {
		return c.fail(i, fmt.Sprintf("element %d: got %g, reference %g, relative error %.3g > tolerance %.3g",
			k, od[k], rd[k], e, c.w.Tol))
	}
	return nil
}

// check verifies one served output for input i.
func (c *checker) check(i int, out *tensor.Tensor) error {
	if c.w.DType == "fp16" {
		return c.againstRef(i, out)
	}
	g := c.golds[i]
	if !out.Shape().Equal(g.Shape()) {
		return c.fail(i, fmt.Sprintf("shape %v, serial run %v", out.Shape(), g.Shape()))
	}
	od, gd := out.Data(), g.Data()
	for k := range gd {
		if math.Float32bits(od[k]) != math.Float32bits(gd[k]) {
			return c.fail(i, fmt.Sprintf("element %d: got %g, serial run %g (not bit-identical)", k, od[k], gd[k]))
		}
	}
	return nil
}

// relErr returns the largest |got-ref| relative to the reference's
// magnitude, and the element where it occurs. The magnitude is the
// largest |ref| over the element's column (last axis), so a detection
// output's score column is judged on its own scale, not behind its box
// coordinates; a classifier's (1, classes) output is judged per element.
// A zero column must match exactly. NaN in got yields +Inf.
func relErr(got, ref *tensor.Tensor) (float64, int) {
	gd, rd := got.Data(), ref.Data()
	sh := ref.Shape()
	cols := sh[len(sh)-1]
	scale := make([]float64, cols)
	for k, v := range rd {
		scale[k%cols] = math.Max(scale[k%cols], math.Abs(float64(v)))
	}
	worst, at := 0.0, 0
	for k, v := range rd {
		d := math.Abs(float64(gd[k]) - float64(v))
		var e float64
		switch {
		case math.IsNaN(d):
			e = math.Inf(1)
		case d == 0:
			continue
		case scale[k%cols] == 0:
			e = math.Inf(1)
		default:
			e = d / scale[k%cols]
		}
		if e > worst {
			worst, at = e, k
		}
	}
	return worst, at
}

func finite(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

func argmax(d []float32) int {
	best := 0
	for k, v := range d {
		if v > d[best] {
			best = k
		}
	}
	return best
}
