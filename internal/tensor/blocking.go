package tensor

// gemmBlocking is one panel blocking of gemmV2: strip=true runs the strip
// pipeline (kc×nc panels of B packed in 8-wide k-major column strips, swept
// with a strip of C in registers), strip=false the direct-B micro-kernel,
// which reads B in place and packs nothing.
type gemmBlocking struct {
	kc, nc int
	strip  bool
}

// The two blockings. Both have an even kc, which keeps them
// bitwise-identical (see gemmV2), and a strip panel fits in packBufCap.
// The transposed products always run gemmStrip: their effective B is never
// row-major in memory, so the pack is the transpose.
var (
	gemmDirect = gemmBlocking{kc: 256, nc: 512}
	gemmStrip  = gemmBlocking{kc: 256, nc: 128, strip: true}
)

// gemmRule is the forward product's blocking: direct-B at m ≤ 2, the strip
// pipeline above. It may read m because both blockings give the same bits
// (row invariance, stated above gemm). The line is a one-worker sweep of
// direct-B ÷ strip time — 0.49–0.53 at m = 1, 0.83–0.97 at m = 2, 1.31–1.47
// at m = 3, 1.39–1.57 at m = 4: from three rows up a packed panel is swept
// often enough to repay its pack.
func gemmRule(m int) gemmBlocking {
	if m <= 2 {
		return gemmDirect
	}
	return gemmStrip
}

// ResetTuneTable does nothing: the GEMM blocking is a rule and keeps no
// table. It stays because the benchmark harness calls it before every
// set-up.
func ResetTuneTable() {}
