package tensor

import (
	"math"
	"testing"
)

// bothGemmKernels runs f under the Go strip kernel, then, on a host that
// selected it at start-up, under the AVX2 one with 8-wide strips only, and
// on an AVX-512 host once more with the 16-lane kernel and 16-wide strips —
// the hook through which the GEMM goldens and fuzz targets hold every kernel
// and strip width to the same bits. State f keeps outside itself (a
// reference product) carries from the Go run into the vector ones. Not safe
// beside a concurrent GEMM: it flips the package's kernel selection.
func bothGemmKernels(t *testing.T, f func()) {
	t.Helper()
	host, hostWide, kernel := gemmVector, gemmWide, "go"
	defer func() {
		gemmVector, gemmWide = host, hostWide
		if t.Failed() {
			t.Logf("strip kernel under test: %s", kernel)
		}
	}()
	gemmVector, gemmWide = false, false
	f()
	if !host {
		return // no AVX2 here: the Go kernel is all this host ever runs
	}
	gemmVector, kernel = true, "avx2"
	f()
	if !hostWide {
		return
	}
	gemmWide, kernel = true, "avx512"
	f()
}

// ruleBlockings are the blockings gemmRule can run variant v at: B in place
// and packed for the forward product, the strip blocking alone for the
// transposed ones. The goldens and fuzz targets run every one of them at
// every m, so the rule's m line can never be what decides a bit.
func ruleBlockings(v gemmVariant) []gemmBlocking {
	if v == gemmNN {
		return []gemmBlocking{gemmDirect, gemmStrip}
	}
	return []gemmBlocking{gemmStrip}
}

// sameBits is bitwise equality except that any NaN equals any NaN: when both
// addends are NaN x86 keeps the first operand's payload, and which addend is
// first is the compiler's choice in the Go kernel.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

// gemmTwinSpecials are the operand values that show a kernel's float32
// sequence: signed zeros, subnormals, infinities, overflowing magnitudes and
// a NaN.
var gemmTwinSpecials = []float32{
	float32(math.Copysign(0, -1)), 0, 1e-40, -1e-42, math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38, 1e-30, float32(math.NaN()),
}

// gemmTwinFill returns n floats starting off (odd) floats into a fresh
// allocation, which is at least 8-byte aligned: the operand's address is
// 4 mod 8, never a multiple of 32. With special set, about one value in 20
// is one of gemmTwinSpecials.
func gemmTwinFill(rng *RNG, n, off int, special bool) []float32 {
	s := make([]float32, n+off+8)[off : off+n]
	for i := range s {
		s[i] = float32(rng.Float64()*2 - 1)
		if special && rng.Float64() < 0.05 {
			s[i] = gemmTwinSpecials[int(rng.Float64()*float64(len(gemmTwinSpecials)))%len(gemmTwinSpecials)]
		}
	}
	return s
}

// gemmStripTwins holds the vector strip kernels — the 8-lane AVX2 ones alone
// (wide false) or with the 16-lane AVX-512 kernel over the whole 16-column
// strips (wide true) — to the Go kernel bit for bit, through the three
// variants' shared sweep at every B row stride: the strip width of a packed
// panel (every variant's gemmStrip; 16-wide strips then 8-wide ones when
// wide) and n (B in place: the forward product's gemmDirect). m runs 1–9
// (4-row tiles plus every 0–3 remainder, and m below a tile), 16 and 128; k a
// lone k, one pair, odd and even lengths and 255/256/257 around kc = 256; n
// 8, 15, 16, 17, 24, 31, 32, 48 and 192 (whole 16- and 8-wide strips, ragged
// tails, a 16-wide strip followed by an 8-wide one, and more than one nc
// panel); accumulators seeded from C and from zero; operands at addresses
// that are not 32-byte aligned, once on ordinary values and once with
// gemmTwinSpecials mixed in, where a flushed subnormal, a lost zero sign or
// a fused rounding would show; at one worker and at three, whose chunk
// bounds fall inside a 4-row tile. The reference is the Go kernel on
// 8-wide strips at one worker, in the variant's first blocking.
func gemmStripTwins(t *testing.T, wide bool) {
	host, hostWide := gemmVector, gemmWide
	defer func() { gemmVector, gemmWide = host, hostWide }()
	defer SetWorkers(SetWorkers(1))
	rng := NewRNG(71)
	for _, special := range []bool{false, true} {
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 128} {
			for _, k := range []int{1, 2, 7, 16, 255, 256, 257} {
				for _, n := range []int{8, 15, 16, 17, 24, 31, 32, 48, 192} {
					for _, accumulate := range []bool{false, true} {
						for _, v := range []gemmVariant{gemmNN, gemmNT, gemmTN} {
							a, b, cSeed := gemmTwinFill(rng, m*k, 1, special), gemmTwinFill(rng, k*n, 3, special), gemmTwinFill(rng, m*n, 5, special)
							run := func(vec, wide bool, workers int, bl gemmBlocking) []float32 {
								gemmVector, gemmWide = vec, wide
								SetWorkers(workers)
								c := append(make([]float32, 5, 5+m*n), cSeed...)[5:]
								gemmV2(v, c, a, b, m, k, n, accumulate, bl)
								return c
							}
							bls := ruleBlockings(v)
							want := run(false, false, 1, bls[0])
							for _, workers := range []int{1, 3} {
								for _, bl := range bls {
									got := run(true, wide, workers, bl)
									for i := range want {
										if !sameBits(got[i], want[i]) {
											t.Fatalf("variant %d, %+v, %dx%dx%d, accumulate=%v, special=%v, wide=%v, workers=%d: C[%d] = %x under the vector kernels, %x under Go",
												v, bl, m, k, n, accumulate, special, wide, workers, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGEMMWideKernelMatchesGo is gemmStripTwins with the AVX-512 kernel
// forced on: the 16-lane strips, packed 16 wide or read in place, against
// the Go kernel.
func TestGEMMWideKernelMatchesGo(t *testing.T) {
	if !gemmWide {
		t.Skip("host has no AVX-512F (or the OS does not save ZMM state): the 8-lane kernels are the only vector kernels")
	}
	gemmStripTwins(t, true)
}

// TestGEMMVectorKernelMatchesGo is the differential test of the AVX2 strip
// micro-kernels against the Go kernel they replace: gemmStripTwins with the
// wide kernel forced off, so an AVX-512 host keeps covering the 8-lane path
// on every strip. tGemm's small path runs the same way,
// tGemmVecChunk against tGemmChunk: every m from 1 to 9 (4-row bands, the
// rows below them, and at 9 a chunk bound inside a band at two workers),
// every n from 1 to 17 and 32 and 768 (whole strips, ragged columns, and a
// weight's width), every k from 1 to 15, and k 40 and 513 (the second
// crosses a tiledKC block) at n up to 32, with NaNs among the special
// values, and once more on operands of ±0 and ±1 alone.
func TestGEMMVectorKernelMatchesGo(t *testing.T) {
	if !gemmVector {
		t.Skip("host has no AVX2: the Go strip kernel is the only kernel")
	}
	gemmStripTwins(t, false)
	defer func() { gemmVector = true }()
	rng := NewRNG(72)
	fill := func(n, off int, special bool) []float32 { return gemmTwinFill(rng, n, off, special) }
	defer SetWorkers(SetWorkers(2))
	ns := []int{32, 768}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	// fillSigns draws operands from ±0 and ±1 alone, where sums of ±0
	// products — and C += s onto a −0 — are common enough that a kernel
	// starting s anywhere but at +0 shows.
	signs := []float32{float32(math.Copysign(0, -1)), 0, 1, -1}
	fillSigns := func(n, off int) []float32 {
		s := make([]float32, n+off+8)[off : off+n]
		for i := range s {
			s[i] = signs[int(rng.Float64()*4)%4]
		}
		return s
	}
	for _, mode := range []string{"ordinary", "special", "signed zeros"} {
		operand := func(n, off int) []float32 {
			if mode == "signed zeros" {
				return fillSigns(n, off)
			}
			return fill(n, off, mode == "special")
		}
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 40, 513} {
			for m := 1; m <= 9; m++ {
				for _, n := range ns {
					if k > 15 && n > 32 {
						continue
					}
					for _, accumulate := range []bool{false, true} {
						a, b, cSeed := operand(k*m, 1), operand(k*n, 3), operand(m*n, 5)
						run := func(vec bool) []float32 {
							gemmVector = vec
							c := append(make([]float32, 5, 5+m*n), cSeed...)[5:]
							tGemmSmall(c, a, b, m, k, n, accumulate)
							return c
						}
						want, got := run(false), run(true)
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("small TN %dx%dx%d, accumulate=%v, %s: C[%d] = %x under AVX2, %x under Go",
									m, k, n, accumulate, mode, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}
