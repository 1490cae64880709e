package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"unigpu/internal/tensor"
)

// refPool2DInto is a frozen copy of the original Pool2DInto: a per-tap
// bounds-checked loop over At/Set with float64 math.Max / sum. The flat
// fp32 path must reproduce it bit for bit.
func refPool2DInto(out, in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) {
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

// poolSpecials are inputs whose max/avg semantics are easy to get wrong:
// NaN (both signs), infinities and signed zeros.
var poolSpecials = []float32{
	float32(math.NaN()), math.Float32frombits(0xffc00000),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
}

// TestPool2DMatchesReference runs Pool2DInto against the frozen per-tap
// loop on random shapes: max and avg, padding (up to a whole kernel, so
// some windows are all padding), strides below and above the kernel,
// planes smaller than the kernel, inputs laced with NaN, infinities and
// signed zeros, and fp16 as well as fp32 storage. Outputs must be
// bit-identical, except that where an average is NaN both sides need only
// be NaN: when two NaNs meet in a float64 add, which one survives depends
// on the operand order the compiler picks, which Go leaves open.
func TestPool2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := 0
	for trial := 0; cases < 400; trial++ {
		kernel := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(4)
		pad := rng.Intn(kernel + 1)
		n, c := 1+rng.Intn(2), 1+rng.Intn(3)
		h, w := 1+rng.Intn(9), 1+rng.Intn(9)
		if h+2*pad < kernel || w+2*pad < kernel {
			continue
		}
		cases++
		dt := tensor.Float32
		if trial%4 == 3 {
			dt = tensor.Float16
		}
		in := tensor.NewTyped(dt, n, c, h, w)
		for i := 0; i < in.Shape().NumElements(); i++ {
			v := float32(rng.NormFloat64())
			if rng.Intn(6) == 0 {
				v = poolSpecials[rng.Intn(len(poolSpecials))]
			}
			in.SetF(i, v)
		}
		oh := (h+2*pad-kernel)/stride + 1
		ow := (w+2*pad-kernel)/stride + 1
		for _, kind := range []PoolKind{MaxPool, AvgPool} {
			name := fmt.Sprintf("trial %d %v kind=%d %dx%d k=%d s=%d p=%d", trial, dt, kind, h, w, kernel, stride, pad)
			got := tensor.NewTyped(dt, n, c, oh, ow)
			want := tensor.NewTyped(dt, n, c, oh, ow)
			Pool2DInto(got, in, kind, kernel, stride, pad)
			refPool2DInto(want, in, kind, kernel, stride, pad)
			for i := 0; i < want.Shape().NumElements(); i++ {
				g, r := got.GetF(i), want.GetF(i)
				if kind == AvgPool && g != g && r != r {
					continue // a NaN sum's sign is the compiler's choice of add operand order
				}
				if math.Float32bits(g) != math.Float32bits(r) {
					t.Fatalf("%s: out[%d] = %v (%#08x), reference %v (%#08x)", name, i,
						g, math.Float32bits(g), r, math.Float32bits(r))
				}
			}
		}
	}
}

// BenchmarkPool2DInto is SqueezeNet's first max-pool at input size 64.
func BenchmarkPool2DInto(b *testing.B) {
	in := randT(1, 1, 96, 29, 29)
	out := tensor.New(1, 96, 14, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pool2DInto(out, in, MaxPool, 3, 2, 0)
	}
}
