//go:build !amd64 || purego

package fp16

// No vector rounding kernel in this build (tensor.HostAVX2 is false, so
// roundVector is too); the stubs keep the dispatch compiling.

func roundAVX2(dst, src *float32, n int) {
	panic("fp16: vector rounding kernel called on a build without one")
}

func accumRoundClearAVX2(acc, grad *float32, n int) {
	panic("fp16: vector rounding kernel called on a build without one")
}

func packHalvesAVX2(dst *uint32, src *float32, n int) int {
	panic("fp16: vector half-word kernel called on a build without one")
}

func sumHalvesAVX2(dst *float32, a, b, c *uint32, n int) {
	panic("fp16: vector half-word kernel called on a build without one")
}
