package ops

import (
	"sync"

	"unigpu/internal/tensor"
)

// im2col-GEMM convolution backend.
//
// The convolution is lowered per (batch, group) to C = A * B where
//
//	A is the (coutPerG x K) weight matrix, K = cinPerG*KH*KW,
//	B is the (K x OutH*OutW) im2col matrix of input patches,
//
// and C is the (coutPerG x OutH*OutW) output plane. Both operands are
// packed into panel layouts so the microkernel streams contiguously:
//
//	packed A: row panels of gemmMR, element (i, k) at panel(i)*K*MR + k*MR + i%MR
//	packed B: col panels of gemmNR, element (k, j) at panel(j)*K*NR + k*NR + j%NR
//
// Macro blocking (gemmMC x gemmNC output tiles) provides the parallelFor
// grain and keeps each worker's A/B panels hot in cache. The K dimension is
// deliberately NOT split (KC == K): every output element accumulates in one
// register in ascending-k order starting from its bias value, which makes
// the GEMM path bit-identical to the direct kernel's ascending (ci, ky, kx)
// tap order (padding taps contribute an exact 0*w = +-0).
const (
	gemmMR = 4   // microkernel rows (output channels)
	gemmNR = 4   // microkernel cols (output pixels)
	gemmMC = 64  // macro-tile rows per parallel job
	gemmNC = 128 // macro-tile cols per parallel job
)

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// GEMMPackedWeightElems returns the length of the packed-A buffer produced
// by PackConvWeightsGEMM for workload w.
func GEMMPackedWeightElems(w ConvWorkload) int {
	g := max(1, w.Groups)
	cinPerG := w.CIn / g
	coutPerG := w.COut / g
	k := cinPerG * w.KH * w.KW
	return g * roundUp(coutPerG, gemmMR) * k
}

// GEMMScratchElems returns the im2col scratch (packed-B) size in float32
// elements for workload w. The buffer covers one (batch, group) plane; the
// batch/group loop is serial so a single buffer is reused.
func GEMMScratchElems(w ConvWorkload) int {
	g := max(1, w.Groups)
	cinPerG := w.CIn / g
	k := cinPerG * w.KH * w.KW
	return k * roundUp(w.OutH()*w.OutW(), gemmNR)
}

// PackConvWeightsGEMM packs OIHW conv weights into the GEMM row-panel
// layout. Done once at plan time; the result is read-only and shared across
// sessions.
func PackConvWeightsGEMM(weight *tensor.Tensor, w ConvWorkload) []float32 {
	g := max(1, w.Groups)
	cinPerG := w.CIn / g
	coutPerG := w.COut / g
	k := cinPerG * w.KH * w.KW
	mPad := roundUp(coutPerG, gemmMR)

	wd := weight.Data()
	packed := make([]float32, g*mPad*k)
	for grp := 0; grp < g; grp++ {
		gBase := grp * mPad * k
		for i := 0; i < mPad; i++ {
			panel := i / gemmMR
			lane := i % gemmMR
			if i >= coutPerG {
				continue // zero-padded tail row
			}
			co := grp*coutPerG + i
			wBase := co * k // OIHW row co is already k-contiguous
			pBase := gBase + panel*k*gemmMR + lane
			for kk := 0; kk < k; kk++ {
				packed[pBase+kk*gemmMR] = wd[wBase+kk]
			}
		}
	}
	return packed
}

// gemmConv is the state of one conv2DGEMMInto call. Its methods are the
// bodies of the call's two parallel loops (im2col panel packing and the
// macro-tile GEMM), so parallelDo runs them without a per-call closure;
// instances are pooled, which keeps a steady-state conv garbage-free.
type gemmConv struct {
	w                          ConvWorkload
	od, ind, pa, pb, bd, rd    []float32
	n, grp, coutPerG, cinPerG  int
	k, nCols, outBase, nBlocks int
	postAct                    bool
	packing                    bool // runJob packs im2col panels, not GEMM tiles
}

var gemmConvPool = sync.Pool{New: func() any { return new(gemmConv) }}

func (c *gemmConv) runJob(job int) {
	if c.packing {
		c.im2colPanel(job)
	} else {
		c.macroTile(job)
	}
}

// im2colPanel fills packed-B panel p of the current (batch, group) input
// plane. Out-of-bounds taps and tail columns are written as exact zeros.
func (c *gemmConv) im2colPanel(p int) {
	w := &c.w
	bp, k, ow := c.pb, c.k, w.OutW()
	pBase := p * k * gemmNR
	for j := 0; j < gemmNR; j++ {
		col := p*gemmNR + j
		if col >= c.nCols {
			for kk := 0; kk < k; kk++ {
				bp[pBase+kk*gemmNR+j] = 0
			}
			continue
		}
		y := col / ow
		x := col % ow
		iy0 := y*w.StrideH - w.PadH
		ix0 := x*w.StrideW - w.PadW
		dst := pBase + j
		for ci := 0; ci < c.cinPerG; ci++ {
			iPlane := (c.n*w.CIn+c.grp*c.cinPerG+ci)*w.H*w.W + ix0
			for ky := 0; ky < w.KH; ky++ {
				iy := iy0 + ky
				rowOK := iy >= 0 && iy < w.H
				iRow := iPlane + iy*w.W
				for kx := 0; kx < w.KW; kx++ {
					var v float32
					if rowOK {
						if ix := ix0 + kx; ix >= 0 && ix < w.W {
							v = c.ind[iRow+kx]
						}
					}
					bp[dst] = v
					dst += gemmNR
				}
			}
		}
	}
}

// macroTile computes one gemmMC x gemmNC output block of the current
// (batch, group) plane.
func (c *gemmConv) macroTile(job int) {
	mb := job / c.nBlocks
	nb := job % c.nBlocks
	i0, i1 := mb*gemmMC, min((mb+1)*gemmMC, c.coutPerG)
	j0, j1 := nb*gemmNC, min((nb+1)*gemmNC, c.nCols)
	for i := i0; i < i1; i += gemmMR {
		for j := j0; j < j1; j += gemmNR {
			c.micro(i, j)
		}
	}
}

// conv2DGEMMInto runs the im2col-GEMM convolution with the full fused
// epilogue (bias, optional residual row rd, activation; see convEpilogue).
// packedA must come from PackConvWeightsGEMM; scratch must hold
// GEMMScratchElems(w) float32s (pass nil to allocate locally).
func conv2DGEMMInto(out, in, bias *tensor.Tensor, rd []float32, w ConvWorkload, packedA, scratch []float32, postAct bool) {
	g := max(1, w.Groups)
	cinPerG := w.CIn / g
	coutPerG := w.COut / g
	k := cinPerG * w.KH * w.KW
	nCols := w.OutH() * w.OutW()
	mPad := roundUp(coutPerG, gemmMR)

	if need := GEMMScratchElems(w); len(scratch) < need {
		scratch = make([]float32, need)
	}
	c := gemmConvPool.Get().(*gemmConv)
	*c = gemmConv{
		w: w, od: out.Data(), ind: in.Data(), pb: scratch, rd: rd,
		coutPerG: coutPerG, cinPerG: cinPerG, k: k, nCols: nCols,
		nBlocks: (nCols + gemmNC - 1) / gemmNC, postAct: postAct,
	}
	if bias != nil {
		c.bd = bias.Data()
	}
	mBlocks := (coutPerG + gemmMC - 1) / gemmMC
	nPanels := (nCols + gemmNR - 1) / gemmNR

	for n := 0; n < w.N; n++ {
		for grp := 0; grp < g; grp++ {
			c.n, c.grp = n, grp
			c.pa = packedA[grp*mPad*k : (grp+1)*mPad*k]
			c.outBase = (n*w.COut + grp*coutPerG) * nCols
			c.packing = true
			parallelDo(nPanels, c)
			c.packing = false
			parallelDo(mBlocks*c.nBlocks, c)
		}
	}
	*c = gemmConv{} // drop the operand references before pooling
	gemmConvPool.Put(c)
}

// micro computes one gemmMR x gemmNR output tile: accumulators initialized
// to the row's bias, accumulated over the full K extent in ascending order
// by gemmKernel4x4, with the epilogue (residual + activation) applied at
// write-out.
func (c *gemmConv) micro(i0, j0 int) {
	var acc [gemmMR * gemmNR]float32
	if c.bd != nil {
		coBase := c.grp*c.coutPerG + i0
		for r := 0; r < gemmMR; r++ {
			b := c.bd[coBase] // tail rows repeat row 0's bias; never written out
			if i0+r < c.coutPerG {
				b = c.bd[coBase+r]
			}
			acc[r*gemmNR], acc[r*gemmNR+1], acc[r*gemmNR+2], acc[r*gemmNR+3] = b, b, b, b
		}
	}

	k := c.k
	// Exact-length panels: a short panel panics here instead of the
	// kernel reading past its end.
	ap := c.pa[(i0/gemmMR)*k*gemmMR:][:k*gemmMR]
	bp := c.pb[(j0/gemmNR)*k*gemmNR:][:k*gemmNR]
	gemmKernel4x4(&acc, &ap[0], &bp[0], k)

	mv := min(c.coutPerG-i0, gemmMR) // valid rows in this tile
	nv := c.nCols - j0               // valid cols in this tile
	act := c.w.FusedActivation
	for r := 0; r < mv; r++ {
		writeGemmRow(c.od, c.rd, c.outBase+(i0+r)*c.nCols+j0, nv, act, c.postAct,
			acc[r*gemmNR], acc[r*gemmNR+1], acc[r*gemmNR+2], acc[r*gemmNR+3])
	}
}

// gemmKernel4x4Go is the portable microkernel loop: c[i*4+j] +=
// a[kk*4+i] * b[kk*4+j] for kk ascending, one scalar accumulator per
// element. Architectures without an assembly gemmKernel4x4 run it, and it
// is the reference the assembly kernel must match bit for bit.
func gemmKernel4x4Go(c *[gemmMR * gemmNR]float32, a, b []float32) {
	c00, c01, c02, c03 := c[0], c[1], c[2], c[3]
	c10, c11, c12, c13 := c[4], c[5], c[6], c[7]
	c20, c21, c22, c23 := c[8], c[9], c[10], c[11]
	c30, c31, c32, c33 := c[12], c[13], c[14], c[15]
	for len(a) >= gemmMR {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		a, b = a[gemmMR:], b[gemmNR:]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	*c = [gemmMR * gemmNR]float32{
		c00, c01, c02, c03,
		c10, c11, c12, c13,
		c20, c21, c22, c23,
		c30, c31, c32, c33,
	}
}

func writeGemmRow(od, rd []float32, base, nv int, act Activation, postAct bool, v0, v1, v2, v3 float32) {
	od[base] = convEpilogue(v0, rd, base, act, postAct)
	if nv > 1 {
		od[base+1] = convEpilogue(v1, rd, base+1, act, postAct)
	}
	if nv > 2 {
		od[base+2] = convEpilogue(v2, rd, base+2, act, postAct)
	}
	if nv > 3 {
		od[base+3] = convEpilogue(v3, rd, base+3, act, postAct)
	}
}
