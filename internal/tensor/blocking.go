package tensor

// gemmBlocking is one panel blocking of gemmV2: strip=true runs the strip
// pipeline (kc×nc panels of B packed in 8-wide k-major column strips, then
// swept), strip=false sweeps the same strips of B in place, kc rows at a
// time across all n columns, and packs nothing (nc is unused there).
type gemmBlocking struct {
	kc, nc int
	strip  bool
}

// The two blockings. Both have an even kc, which keeps them
// bitwise-identical (see gemmV2), and a strip panel fits in packBufCap.
// The transposed products always run gemmStrip: their effective B is never
// row-major in memory, so the pack is the transpose.
var (
	gemmDirect = gemmBlocking{kc: 256}
	gemmStrip  = gemmBlocking{kc: 256, nc: 128, strip: true}
)

// gemmDirectMaxM is the tallest forward product that reads B in place.
const gemmDirectMaxM = 128

// gemmRule is the forward product's blocking: B read in place up to
// gemmDirectMaxM rows, the strip pipeline above. It may read m because both
// blockings give the same bits (row invariance, stated above gemm). Both run
// the same strip kernel; what differs is the pack, which pays only once
// enough 4-row tiles sweep a panel. The line is read off BenchmarkGEMMSmallM:
// in-place ÷ packed time, min of 3, range over its six k×n (2 vCPU):
//
//	m          1          2          8          16         32         128        256
//	1 worker   0.12–0.33  0.19–0.39  0.30–0.40  0.44–0.56  0.46–1.14  0.70–1.24  0.97–1.34
//	2 workers  0.12–0.28  0.21–0.40  0.29–0.49  0.37–0.52  0.53–0.73  0.50–0.95  0.58–1.66
//
// At 128 rows the GPT shapes (k, n ≤ 512) still read 0.70–0.97 on one
// worker, the 640² and 768² ones cross earlier, and no workload runs those
// above 8 rows; two workers favour in place further up, since it fans rows
// out with no pack barrier. gpt_serial_samo's forward is m = 128 on one
// worker, and its step floor is the same with the line at 64 or 128.
func gemmRule(m int) gemmBlocking {
	if m <= gemmDirectMaxM {
		return gemmDirect
	}
	return gemmStrip
}

// ResetTuneTable does nothing: the GEMM blocking is a rule and keeps no
// table. It stays because the benchmark harness calls it before every
// set-up.
func ResetTuneTable() {}
