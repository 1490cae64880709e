package ops

import (
	"math"
	"sync"

	"unigpu/internal/tensor"
)

// PoolKind selects the pooling reduction.
type PoolKind int

const (
	MaxPool PoolKind = iota
	AvgPool
)

// Pool2D applies kernel×kernel pooling with the given stride and padding
// over NCHW input. Average pooling excludes padding from the divisor
// (count_include_pad=false), matching GluonCV defaults.
func Pool2D(in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) *tensor.Tensor {
	s := in.Shape()
	oh := (s[2]+2*pad-kernel)/stride + 1
	ow := (s[3]+2*pad-kernel)/stride + 1
	out := tensor.New(s[0], s[1], oh, ow)
	Pool2DInto(out, in, kind, kernel, stride, pad)
	return out
}

// Pool2DInto applies pooling into a caller-provided (N, C, OutH, OutW)
// tensor.
//
// Over fp32 storage it pools flat planes, spread across host cores, with
// the in-bounds window hoisted out of the tap loop (as conv2DDirectInto
// does). It produces exactly what the per-tap loop over At/Set that other
// dtypes use produces: max-pool keeps math.Max's special cases (+Inf
// beats NaN, +0 beats -0, NaN otherwise propagates as the canonical NaN),
// and avg-pool sums in float64 in ascending (ky, kx) order.
func Pool2DInto(out, in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) {
	if !allFloat32(out, in) {
		pool2DTypedInto(out, in, kind, kernel, stride, pad)
		return
	}
	s := in.Shape()
	c := poolCalls.Get().(*poolCall)
	*c = poolCall{
		src: in.Data(), dst: out.Data(), kind: kind,
		h: s[2], w: s[3], kernel: kernel, stride: stride, pad: pad,
		oh: (s[2]+2*pad-kernel)/stride + 1, ow: (s[3]+2*pad-kernel)/stride + 1,
	}
	parallelDo(s[0]*s[1], c)
	*c = poolCall{} // drop the tensor references before pooling
	poolCalls.Put(c)
}

// poolCall is one fp32 Pool2DInto call. Its runJob pools one plane, so
// parallelDo spreads the planes without a per-call closure; instances
// are pooled, which keeps a steady-state pool garbage-free.
type poolCall struct {
	src, dst                          []float32
	kind                              PoolKind
	h, w, oh, ow, kernel, stride, pad int
}

var poolCalls = sync.Pool{New: func() any { return new(poolCall) }}

func (c *poolCall) runJob(p int) {
	h, w, oh, ow := c.h, c.w, c.oh, c.ow
	src := c.src[p*h*w : (p+1)*h*w]
	dst := c.dst[p*oh*ow : (p+1)*oh*ow]
	for y := 0; y < oh; y++ {
		iy0 := y*c.stride - c.pad
		ky0, ky1 := clampKernelRange(iy0, h, c.kernel)
		for x := 0; x < ow; x++ {
			ix0 := x*c.stride - c.pad
			kx0, kx1 := clampKernelRange(ix0, w, c.kernel)
			y0, y1 := iy0+ky0, iy0+ky1
			x0, x1 := ix0+kx0, ix0+kx1
			if c.kind == MaxPool {
				dst[y*ow+x] = windowMax(src, w, y0, y1, x0, x1)
			} else {
				dst[y*ow+x] = windowAvg(src, w, y0, y1, x0, x1)
			}
		}
	}
}

// windowMax reduces the in-bounds window [y0,y1) x [x0,x1) of a flat
// w-wide plane like a chain of math.Max from -Inf: +Inf wins over NaN,
// +0 over -0, and any other NaN gives the canonical NaN. An empty window
// is -Inf.
func windowMax(src []float32, w, y0, y1, x0, x1 int) float32 {
	v := float32(math.Inf(-1))
	if x0 >= x1 {
		return v
	}
	for y := y0; y < y1; y++ {
		for _, e := range src[y*w+x0 : y*w+x1] {
			v = max(v, e)
		}
	}
	if v == v {
		return v
	}
	for y := y0; y < y1; y++ {
		for _, e := range src[y*w+x0 : y*w+x1] {
			if math.IsInf(float64(e), 1) {
				return e
			}
		}
	}
	return float32(math.NaN())
}

// windowAvg sums the in-bounds window in float64 in ascending (y, x) order
// and divides by its tap count (count_include_pad=false); an empty window
// is 0.
func windowAvg(src []float32, w, y0, y1, x0, x1 int) float32 {
	if x0 >= x1 || y0 >= y1 {
		return 0
	}
	var sum float64
	for y := y0; y < y1; y++ {
		for _, e := range src[y*w+x0 : y*w+x1] {
			sum += float64(e)
		}
	}
	return float32(sum / float64((y1-y0)*(x1-x0)))
}

// pool2DTypedInto is the per-tap pooling loop over At/Set, for storage
// dtypes other than fp32.
func pool2DTypedInto(out, in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) {
	s := in.Shape()
	n, c, h, w := s[0], s[1], s[2], s[3]
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					var acc float64
					count := 0
					if kind == MaxPool {
						acc = math.Inf(-1)
					}
					for ky := 0; ky < kernel; ky++ {
						iy := y*stride - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kernel; kx++ {
							ix := x*stride - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := float64(in.At(ni, ci, iy, ix))
							if kind == MaxPool {
								acc = math.Max(acc, v)
							} else {
								acc += v
							}
							count++
						}
					}
					if kind == AvgPool && count > 0 {
						acc /= float64(count)
					}
					out.Set(float32(acc), ni, ci, y, x)
				}
			}
		}
	}
}

// GlobalAvgPool reduces each channel plane to one value: (N,C,H,W)->(N,C,1,1).
func GlobalAvgPool(in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(s[0], s[1], 1, 1)
	GlobalAvgPoolInto(out, in)
	return out
}

// GlobalAvgPoolInto reduces each channel plane to one value into out.
func GlobalAvgPoolInto(out, in *tensor.Tensor) {
	s := in.Shape()
	n, c, hw := s[0], s[1], s[2]*s[3]
	if !allFloat32(out, in) {
		for p := 0; p < n*c; p++ {
			base := p * hw
			var sum float64
			for i := 0; i < hw; i++ {
				sum += float64(in.GetF(base + i))
			}
			out.SetF(p, float32(sum/float64(hw)))
		}
		return
	}
	id, od := in.Data(), out.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * hw
			var sum float64
			for i := 0; i < hw; i++ {
				sum += float64(id[base+i])
			}
			od[ni*c+ci] = float32(sum / float64(hw))
		}
	}
}
