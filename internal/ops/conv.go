package ops

import (
	"runtime"
	"sync"
	"sync/atomic"

	"unigpu/internal/tensor"
)

// Conv2D computes a (possibly grouped/depthwise) 2-D convolution in NCHW
// with OIHW weights, optional bias, and an optional fused activation. The
// spatial-output loop is parallelized across host cores.
func Conv2D(in, weight, bias *tensor.Tensor, w ConvWorkload) *tensor.Tensor {
	out := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	Conv2DInto(out, in, weight, bias, w)
	return out
}

// Conv2DInto is Conv2D computing into a caller-provided output tensor of
// shape (N, COut, OutH, OutW); it allocates no intermediate storage.
//
// Boundary checks are hoisted out of the tap loop: for each output row the
// in-bounds ky range is computed once, and for each output pixel the
// in-bounds kx range is computed once, so the inner loop runs branch-free.
// Taps still accumulate in ascending (ci, ky, kx) order, which keeps the
// result bit-identical to the naive per-tap-branching loop.
func Conv2DInto(out, in, weight, bias *tensor.Tensor, w ConvWorkload) {
	conv2DDirectInto(out, in, weight, bias, nil, w, false)
}

// conv2DDirectInto is the direct kernel with the full fused epilogue:
// bias, an optional residual row (res, same shape as out) and the fused
// activation, applied per element in convEpilogue order.
func conv2DDirectInto(out, in, weight, bias *tensor.Tensor, rd []float32, w ConvWorkload, postAct bool) {
	oh, ow := w.OutH(), w.OutW()
	g := max(1, w.Groups)
	cinPerG := w.CIn / g
	coutPerG := w.COut / g

	ind := in.Data()
	wd := weight.Data()
	od := out.Data()
	var bd []float32
	if bias != nil {
		bd = bias.Data()
	}

	parallelFor(w.N*w.COut, func(job int) {
		n := job / w.COut
		co := job % w.COut
		grp := co / coutPerG
		ciBase := grp * cinPerG
		var b float32
		if bd != nil {
			b = bd[co]
		}
		for y := 0; y < oh; y++ {
			iy0 := y*w.StrideH - w.PadH
			ky0, ky1 := clampKernelRange(iy0, w.H, w.KH)
			for x := 0; x < ow; x++ {
				ix0 := x*w.StrideW - w.PadW
				kx0, kx1 := clampKernelRange(ix0, w.W, w.KW)
				sum := b
				for ci := 0; ci < cinPerG; ci++ {
					wBase := ((co * cinPerG) + ci) * w.KH * w.KW
					iBase := (n*w.CIn+ciBase+ci)*w.H*w.W + ix0
					for ky := ky0; ky < ky1; ky++ {
						iRow := iBase + (iy0+ky)*w.W
						wRow := wBase + ky*w.KW
						for kx := kx0; kx < kx1; kx++ {
							sum += ind[iRow+kx] * wd[wRow+kx]
						}
					}
				}
				oi := ((n*w.COut+co)*oh+y)*ow + x
				od[oi] = convEpilogue(sum, rd, oi, w.FusedActivation, postAct)
			}
		}
	})
}

// clampKernelRange returns the half-open [k0,k1) kernel-tap range for which
// base+k lands inside [0,size), given kernel extent kext.
func clampKernelRange(base, size, kext int) (int, int) {
	k0, k1 := 0, kext
	if base < 0 {
		k0 = -base
	}
	if base+kext > size {
		k1 = size - base
	}
	if k1 < k0 {
		k1 = k0
	}
	return k0, k1
}

func applyActivation(v float32, a Activation) float32 {
	switch a {
	case ActReLU:
		if v < 0 {
			return 0
		}
	case ActLeakyReLU:
		if v < 0 {
			return LeakyAlpha * v
		}
	}
	return v
}

// convEpilogue finishes one conv output element: the optional fused
// residual row rd (indexed like the output) is added before the activation
// for the ResNet conv→add→relu pattern, or after it (postAct) for the
// Darknet conv(+act)→add pattern. The per-element operation order matches
// the unfused AddInto/activation kernels exactly, so fusing is
// bit-preserving.
func convEpilogue(v float32, rd []float32, oi int, a Activation, postAct bool) float32 {
	if rd != nil && !postAct {
		v += rd[oi]
	}
	v = applyActivation(v, a)
	if rd != nil && postAct {
		v += rd[oi]
	}
	return v
}

// parallelTask is a parallel loop body. parallelDo takes one instead of a
// func so that a caller can pass a pooled object and dispatch without
// allocating a closure.
type parallelTask interface{ runJob(i int) }

// funcTask adapts a func to parallelTask; a func value is pointer-shaped,
// so the conversion to the interface does not allocate.
type funcTask func(i int)

func (f funcTask) runJob(i int) { f(i) }

// parallelFor runs f over jobs [0,n) across host cores (see parallelDo).
func parallelFor(n int, f func(i int)) { parallelDo(n, funcTask(f)) }

// parallelLoop is the shared state of one parallelDo call, pooled so the
// dispatch itself allocates nothing.
type parallelLoop struct {
	next atomic.Int64
	n    int
	task parallelTask
	wg   sync.WaitGroup
}

var parallelLoops = sync.Pool{New: func() any { return new(parallelLoop) }}

// parallelHandoff passes loops to the helper goroutines. A go statement
// with arguments allocates a closure, so each helper is started without
// one and receives its loop here. Every send follows the go statement of
// the helper that will receive it, so a full buffer only delays a send;
// the capacity lets the caller start its own share of jobs without
// waiting for the helpers to be scheduled.
var parallelHandoff = make(chan *parallelLoop, 64)

// parallelDo runs t.runJob over jobs [0,n) across host cores. The caller
// and up to NumCPU-1 helper goroutines claim jobs off an atomic counter,
// so setup cost is O(workers), not O(n) channel sends, and parallelDo
// returns once every job has finished.
func parallelDo(n int, t parallelTask) {
	workers := min(runtime.NumCPU(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			t.runJob(i)
		}
		return
	}
	l := parallelLoops.Get().(*parallelLoop)
	l.n, l.task = n, t
	l.next.Store(0)
	l.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go parallelHelper()
		parallelHandoff <- l
	}
	l.drain()
	l.wg.Wait()
	l.task = nil
	parallelLoops.Put(l)
}

func parallelHelper() {
	l := <-parallelHandoff
	l.drain()
	l.wg.Done()
}

func (l *parallelLoop) drain() {
	for {
		i := int(l.next.Add(1)) - 1
		if i >= l.n {
			return
		}
		l.task.runJob(i)
	}
}

// Dense computes out[n,o] = sum_i in[n,i]*W[o,i] + bias[o].
func Dense(in, weight, bias *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape()[0], weight.Shape()[0])
	DenseInto(out, in, weight, bias)
	return out
}

// DenseInto is Dense computing into a caller-provided (N, O) tensor.
func DenseInto(out, in, weight, bias *tensor.Tensor) {
	DenseActInto(out, in, weight, bias, ActNone)
}

// DenseActInto is DenseInto with a fused activation epilogue: the
// activation is applied to each finished accumulator exactly as a separate
// elementwise pass would, so fusing it is bit-preserving.
func DenseActInto(out, in, weight, bias *tensor.Tensor, act Activation) {
	n := in.Shape()[0]
	k := in.Shape()[1]
	o := weight.Shape()[0]
	var bd []float32
	if bias != nil {
		bd = bias.Data()
	}
	if !allFloat32(out, in, weight) {
		parallelFor(n*o, func(job int) {
			ni, oi := job/o, job%o
			var sum float32
			if bd != nil {
				sum = bd[oi]
			}
			for i := 0; i < k; i++ {
				sum += in.GetF(ni*k+i) * weight.GetF(oi*k+i)
			}
			out.SetF(ni*o+oi, applyActivation(sum, act))
		})
		return
	}
	ind, wd, od := in.Data(), weight.Data(), out.Data()
	parallelFor(n*o, func(job int) {
		ni, oi := job/o, job%o
		var sum float32
		if bd != nil {
			sum = bd[oi]
		}
		for i := 0; i < k; i++ {
			sum += ind[ni*k+i] * wd[oi*k+i]
		}
		od[ni*o+oi] = applyActivation(sum, act)
	})
}
