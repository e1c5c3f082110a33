//go:build !amd64 || purego

package optim

// No vector Adam kernel in this build (tensor.HostAVX2 is false, so
// adamVector is too); the stub keeps the dispatch compiling.

func adamAVX2(p, grad, m, v *float32, n int, k *adamConsts, decay bool) {
	panic("optim: vector Adam kernel called on a build without one")
}
