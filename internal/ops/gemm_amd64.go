package ops

// gemmKernel4x4 accumulates k rank-1 updates into the 4x4 tile c:
// c[i*4+j] += ap[kk*4+i] * bp[kk*4+j] for kk ascending. ap and bp must
// point at k*4 readable float32s. Implemented in gemm_amd64.s.
//
//go:noescape
func gemmKernel4x4(c *[16]float32, ap, bp *float32, k int)
