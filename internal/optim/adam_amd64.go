//go:build amd64 && !purego

package optim

// Implemented in adam_amd64.s: adamChunk's loop over n elements, n a
// multiple of 8, with decoupled weight decay when decay is set. The callers
// have cut p, grad, m and v from slices at least n long.
//
//go:noescape
func adamAVX2(p, grad, m, v *float32, n int, k *adamConsts, decay bool)
