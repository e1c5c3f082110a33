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

// TestGEMMVectorKernelMatchesGo is the differential test of the AVX2 strip
// micro-kernels against the Go kernel they replace, bit for bit, through the
// three variants' shared sweep at both B row strides — 8 (a packed strip:
// every variant's gemmStrip) and n (B in place: the forward product's
// gemmDirect): k of every length class (a lone k, one pair, a pair and an
// odd tail, both sides of one kc = 256 panel and two whole panels),
// accumulators seeded from C and from zero, every m mod 4 (4-row tiles plus
// 0–3 remainder rows, and m below a tile), every n mod 8 (whole strips plus
// the scalar ragged tail), operands at addresses that are not 32-byte
// aligned — once on ordinary values and once with signed zeros, subnormals,
// infinities and overflowing magnitudes mixed in, where a flushed subnormal,
// a lost zero sign or a fused rounding would show. Every blocking the rule
// can pick runs under AVX2 against the Go kernel's first one, so for the
// forward product the vector kernel at either stride is also held to the Go
// kernel in place. (Worker counts are the worker-sweep goldens' business;
// they run under both kernels too.) tGemm's small path runs the same way,
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
	defer func() { gemmVector = true }()
	specials := []float32{
		float32(math.Copysign(0, -1)), 0, 1e-40, -1e-42, math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38, 1e-30, float32(math.NaN()),
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
						for _, v := range []gemmVariant{gemmNN, gemmNT, gemmTN} {
							a, b, cSeed := fill(m*k, 1, special), fill(k*n, 3, special), fill(m*n, 5, special)
							run := func(vec bool, bl gemmBlocking) []float32 {
								gemmVector = vec
								c := append(make([]float32, 5, 5+m*n), cSeed...)[5:]
								gemmV2(v, c, a, b, m, k, n, accumulate, bl)
								return c
							}
							bls := ruleBlockings(v)
							want := run(false, bls[0])
							for _, bl := range bls {
								got := run(true, bl)
								for i := range want {
									if !sameBits(got[i], want[i]) {
										t.Fatalf("variant %d, %+v, %dx%dx%d, accumulate=%v, special=%v: C[%d] = %x under AVX2, %x under Go",
											v, bl, m, k, n, accumulate, special, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
									}
								}
							}
						}
					}
				}
			}
		}
	}
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
