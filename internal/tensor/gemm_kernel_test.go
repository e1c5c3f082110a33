package tensor

import (
	"math"
	"testing"
)

// bothGemmKernels runs f under the Go strip kernel and then, on a host that
// selected it at start-up, under the vector one — the hook through which the
// GEMM goldens and fuzz targets hold both kernels to the same bits. State f
// keeps outside itself (a reference product) carries from the Go half into
// the vector half. Not safe beside a concurrent GEMM: it flips the
// package's kernel selection.
func bothGemmKernels(t *testing.T, f func()) {
	t.Helper()
	host, kernel := gemmVector, "go"
	defer func() {
		gemmVector = host
		if t.Failed() {
			t.Logf("strip kernel under test: %s", kernel)
		}
	}()
	gemmVector = false
	f()
	if !host {
		return // no AVX2 here: the Go kernel is all this host ever runs
	}
	gemmVector, kernel = true, "avx2"
	f()
}

// sameBits is bitwise equality except that any NaN equals any NaN: when both
// addends are NaN x86 keeps the first operand's payload, and which addend is
// first is the compiler's choice in the Go kernel.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

// TestGEMMVectorKernelMatchesGo is the differential test of the AVX2 strip
// micro-kernels against the Go kernel they replace, bit for bit, through the
// three variants' shared sweep: one k panel of every length class (a lone k,
// one pair, a pair and an odd tail, and both sides of the two kc blockings),
// accumulators seeded from C and from zero, every m mod 4 (4-row tiles plus
// 0–3 remainder rows, and m below a tile), every n mod 8 (whole strips plus
// the scalar ragged tail), operands at addresses that are not 32-byte
// aligned — once on ordinary values and once with signed zeros, subnormals,
// infinities and overflowing magnitudes mixed in, where a flushed subnormal,
// a lost zero sign or a fused rounding would show. (Worker counts are the
// worker-sweep goldens' business; they run under both kernels too.)
func TestGEMMVectorKernelMatchesGo(t *testing.T) {
	if !gemmVector {
		t.Skip("host has no AVX2: the Go strip kernel is the only kernel")
	}
	defer func() { gemmVector = true }()
	cand := tuneCand{kc: 512, nc: 256, strip: true}
	specials := []float32{
		float32(math.Copysign(0, -1)), 0, 1e-40, -1e-42, math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38, 1e-30,
	}
	rng := NewRNG(71)
	// fill returns n floats starting off (odd) floats into a fresh allocation,
	// which is at least 8-byte aligned: the operand's address is 4 mod 8,
	// never a multiple of 32.
	fill := func(n, off int, special bool) []float32 {
		s := make([]float32, n+off+8)[off : off+n]
		for i := range s {
			s[i] = float32(rng.Float64()*2 - 1)
			if special && rng.Float64() < 0.05 {
				s[i] = specials[int(rng.Float64()*float64(len(specials)))%len(specials)]
			}
		}
		return s
	}
	for _, special := range []bool{false, true} {
		for _, k := range []int{1, 2, 3, 255, 256, 511, 512} {
			for _, m := range []int{2, 4, 5, 6, 7, 11} {
				for n := 16; n < 24; n++ {
					for _, accumulate := range []bool{false, true} {
						for v := gemmNN; v < gemmVariants; v++ {
							a, b, cSeed := fill(m*k, 1, special), fill(k*n, 3, special), fill(m*n, 5, special)
							run := func(vec bool) []float32 {
								gemmVector = vec
								c := append(make([]float32, 5, 5+m*n), cSeed...)[5:]
								gemmV2(v, c, a, b, m, k, n, accumulate, cand)
								return c
							}
							want, got := run(false), run(true)
							for i := range want {
								if !sameBits(got[i], want[i]) {
									t.Fatalf("variant %d, %dx%dx%d, accumulate=%v, special=%v: C[%d] = %x under AVX2, %x under Go",
										v, m, k, n, accumulate, special, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}
