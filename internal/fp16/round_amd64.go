//go:build amd64 && !purego

package fp16

// Implemented in round_amd64.s: the F16C forms of roundChunk's and
// accumClearChunk's loops, and of the half-word loops of halves.go
// (packHalvesGo, sumHalves), over n elements, n a multiple of 8.
// The callers have cut every pointer from a slice at least n long (n/2 for
// the words).

//go:noescape
func roundAVX2(dst, src *float32, n int)

//go:noescape
func accumRoundClearAVX2(acc, grad *float32, n int)

// packHalvesAVX2 returns how many leading elements it packed (see the .s).
//
//go:noescape
func packHalvesAVX2(dst *uint32, src *float32, n int) int

//go:noescape
func sumHalvesAVX2(dst *float32, a, b, c *uint32, n int)
