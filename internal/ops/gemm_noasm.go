//go:build !amd64

package ops

import "unsafe"

// gemmKernel4x4 accumulates k rank-1 updates into the 4x4 tile c:
// c[i*4+j] += ap[kk*4+i] * bp[kk*4+j] for kk ascending. ap and bp must
// point at k*4 readable float32s. Without an assembly kernel for this
// architecture it runs the pure-Go loop.
func gemmKernel4x4(c *[16]float32, ap, bp *float32, k int) {
	gemmKernel4x4Go(c, unsafe.Slice(ap, k*gemmMR), unsafe.Slice(bp, k*gemmNR))
}
