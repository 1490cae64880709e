package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// gemmSpecials are the IEEE values a microkernel must round and propagate
// exactly like the scalar loop: NaN (the positive quiet NaN and the
// negative one x86 produces for 0*Inf), infinities, signed zeros and
// subnormals (including the smallest and largest).
var gemmSpecials = []float32{
	float32(math.NaN()), math.Float32frombits(0xffc00000),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), 1e-39,
}

// gemmPanel returns n random float32s; with specials set, about one in
// eight is drawn from gemmSpecials.
func gemmPanel(rng *rand.Rand, n int, specials bool) []float32 {
	p := make([]float32, n)
	for i := range p {
		if specials && rng.Intn(8) == 0 {
			p[i] = gemmSpecials[rng.Intn(len(gemmSpecials))]
			continue
		}
		p[i] = float32(rng.NormFloat64())
	}
	return p
}

// TestGemmKernel4x4MatchesGo requires the microkernel to be bit-identical
// to the portable Go loop on random panels, including ones laced with
// NaN, infinities, signed zeros and subnormals, from random starting
// tiles. The one exception is which NaN comes out where two different
// NaNs meet: x86 keeps the first operand's, and the compiler is free to
// commute the Go loop's multiplies and adds, so there both sides need
// only be NaN.
func TestGemmKernel4x4MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3, 7, 64, 576} {
		for trial := 0; trial < 20; trial++ {
			specials := trial%2 == 1
			a := gemmPanel(rng, k*gemmMR, specials)
			b := gemmPanel(rng, k*gemmNR, specials)
			var want, got [gemmMR * gemmNR]float32
			copy(want[:], gemmPanel(rng, len(want), specials))
			got = want
			gemmKernel4x4Go(&want, a, b)
			gemmKernel4x4(&got, &a[0], &b[0], k)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
					t.Fatalf("k=%d trial %d: c[%d] = %v (%#08x), Go loop %v (%#08x)", k, trial, i,
						got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// BenchmarkGemmKernel4x4 reports the microkernel's and the Go loop's
// throughput on one core at the K of a 3x3 conv over 64 channels.
func BenchmarkGemmKernel4x4(b *testing.B) {
	const k = 576
	rng := rand.New(rand.NewSource(1))
	ap := gemmPanel(rng, k*gemmMR, false)
	bp := gemmPanel(rng, k*gemmNR, false)
	for _, impl := range []struct {
		name string
		run  func(c *[gemmMR * gemmNR]float32)
	}{
		{"asm", func(c *[gemmMR * gemmNR]float32) { gemmKernel4x4(c, &ap[0], &bp[0], k) }},
		{"go", func(c *[gemmMR * gemmNR]float32) { gemmKernel4x4Go(c, ap, bp) }},
	} {
		b.Run(fmt.Sprintf("%s/K=%d", impl.name, k), func(b *testing.B) {
			var c [gemmMR * gemmNR]float32
			start := time.Now()
			for i := 0; i < b.N; i++ {
				impl.run(&c)
			}
			flops := 2 * float64(gemmMR*gemmNR*k) * float64(b.N)
			b.ReportMetric(flops/time.Since(start).Seconds()/1e9, "GFLOP/s")
		})
	}
}
