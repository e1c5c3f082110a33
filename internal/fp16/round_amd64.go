//go:build amd64 && !purego

package fp16

// Implemented in round_amd64.s: the F16C forms of roundChunk's and
// accumClearChunk's loops over n elements, n a multiple of 8. The callers
// have cut every pointer from a slice at least n long.

//go:noescape
func roundAVX2(dst, src *float32, n int)

//go:noescape
func accumRoundClearAVX2(acc, grad *float32, n int)
