package tensor

import (
	"fmt"
	"math"
	"testing"
)

// FuzzMatMulInto drives every GEMM dispatch path — the saxpy small-shape
// kernel, the direct-B and strip candidates, the latter under both strip
// kernels (bothGemmKernels) — against the naive triple loop over
// fuzzer-chosen shapes. Shapes are folded into ranges that cross the
// dispatch boundaries (m around gemmMR and the v2 gate, k and n around the
// kc/nc candidates and the 8-wide strip width), and every candidate's
// output is additionally checked BITWISE against the Go kernel's candidate
// 0: the autotuner may pick any of them on any host, so a divergence would
// make tuning perturb training. Last, the row-invariance contract (see
// gemm): rows recomputed alone and in short blocks, through the dispatcher
// and through every candidate, carry the full product's bits.
func FuzzMatMulInto(f *testing.F) {
	// Seeded degenerate corpus: dispatch-gate boundaries, micro-kernel
	// remainders, panel-boundary crossings, strip tails, empty dims.
	f.Add(uint16(0), uint16(8), uint16(8), uint64(1), false)
	f.Add(uint16(1), uint16(16), uint16(16), uint64(2), false)   // m=1: a lone remainder row
	f.Add(uint16(3), uint16(15), uint16(17), uint64(3), true)    // k below the v2 gate: saxpy
	f.Add(uint16(4), uint16(16), uint16(16), uint64(4), false)   // exactly at the v2 gate
	f.Add(uint16(5), uint16(129), uint16(130), uint64(5), false) // kc=128 boundary, nc remainder
	f.Add(uint16(8), uint16(257), uint16(129), uint64(6), true)  // kc=256 crossing
	f.Add(uint16(7), uint16(300), uint16(9), uint64(7), false)   // n below the v2 gate, odd k
	f.Add(uint16(40), uint16(300), uint16(200), uint64(8), false)
	f.Add(uint16(47), uint16(319), uint16(223), uint64(9), true) // max folded shape
	f.Add(uint16(3), uint16(24), uint16(32), uint64(10), false)  // a served MLP batch of 3: v2 at m < gemmMR
	f.Fuzz(func(t *testing.T, mr, kr, nr uint16, seed uint64, accumulate bool) {
		m, k, n := int(mr%48), int(kr%320), int(nr%224)
		rng := NewRNG(seed | 1)
		a, b := New(m, k), New(k, n)
		fillSeq(a, rng)
		fillSeq(b, rng)

		want := refMatMul(a, b)
		cSeed := New(m, n)
		fillSeq(cSeed, rng)
		if accumulate {
			Add(want, cSeed)
		}

		var first *Tensor
		bothGemmKernels(t, func() {
			// 1. The public dispatcher, whatever path the autotuner is on.
			got := cSeed.Clone()
			MatMulInto(got, a, b, accumulate)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("MatMulInto(%dx%dx%d, acc=%v) differs from naive by %g", m, k, n, accumulate, d)
			}

			if m == 0 || k == 0 || n == 0 {
				return // candidate kernels are only reachable through dispatch for non-empty dims
			}
			// 2. Every autotune candidate, pinned to naive and bitwise to each other.
			for ci, cand := range tuneCands {
				out := cSeed.Clone()
				gemmV2(gemmNN, out.data, a.data, b.data, m, k, n, accumulate, cand)
				if d := MaxAbsDiff(out, want); d > tol(k) {
					t.Fatalf("candidate %d (%+v) on %dx%dx%d differs from naive by %g", ci, cand, m, k, n, d)
				}
				if first == nil {
					first = out
				} else if i, ok := bitwiseEqual(out, first); !ok {
					t.Fatalf("candidate %d (%+v) on %dx%dx%d: not bitwise-equal to the Go kernel's candidate 0 at index %d",
						ci, cand, m, k, n, i)
				}
			}
			// 3. Row invariance, of the dispatcher and of every candidate.
			lo, hi := rowWindow(m, seed)
			checkRowInvariant(t, "MatMulInto", got, cSeed, rowHeights, lo, hi, 0, func(out *Tensor, lo, hi int) {
				MatMulInto(out, a.Slice(lo, hi), b, accumulate)
			})
			for ci, cand := range tuneCands {
				checkRowInvariant(t, fmt.Sprintf("candidate %d", ci), first, cSeed, rowHeights, lo, hi, ci, func(out *Tensor, lo, hi int) {
					gemmV2(gemmNN, out.data, a.data[lo*k:hi*k], b.data, hi-lo, k, n, accumulate, cand)
				})
			}
		})
	})
}

// rowHeights are the block heights the row-invariance checks recompute rows
// at: a row alone, heights below, at and just above the 4-row micro-kernel,
// and two strips. rowWorkers are the worker counts they rotate through.
var (
	rowHeights = []int{1, 2, 3, 4, 5, 8}
	rowWorkers = []int{1, 2, 3, 4, 8}
)

// rowWindow places a window of up to 16 rows inside [0,m) from pick: the
// fuzz targets recompute only those rows, so an execution stays cheap at
// m in the hundreds.
func rowWindow(m int, pick uint64) (lo, hi int) {
	if m <= 16 {
		return 0, m
	}
	lo = int(pick % uint64(m-15))
	return lo, lo + 16
}

// checkRowInvariant pins the row-invariance contract (stated above gemm) on
// one product. full holds C for every row; mul(out, lo, hi) must compute
// rows [lo,hi) of the same product alone, into out, which arrives holding
// those rows of cSeed. Rows [w0,w1) are recomputed in blocks of each height —
// the last block of a height may be short — at worker counts rotating
// through rowWorkers from rot, and every block must match full bit for bit.
func checkRowInvariant(t *testing.T, what string, full, cSeed *Tensor, heights []int, w0, w1, rot int, mul func(out *Tensor, lo, hi int)) {
	t.Helper()
	defer SetWorkers(SetWorkers(0))
	for hx, h := range heights {
		w := rowWorkers[(rot+hx)%len(rowWorkers)]
		SetWorkers(w)
		for lo := w0; lo < w1; lo += h {
			hi := min(lo+h, w1)
			out := cSeed.Slice(lo, hi).Clone()
			mul(out, lo, hi)
			if i, ok := bitwiseEqual(out, full.Slice(lo, hi)); !ok {
				t.Fatalf("%s, workers=%d: rows [%d,%d) computed alone differ from the same rows of the %d-row product at index %d",
					what, w, lo, hi, full.shape[0], i)
			}
		}
	}
}

// FuzzMatMulTInto drives the C = A·Bᵀ dispatcher — the tiled small-shape
// kernel and every transposed-variant strip candidate under both strip
// kernels — against the naive triple loop over fuzzer-chosen shapes, with
// the same dispatch-boundary folding as FuzzMatMulInto; every candidate's
// output is additionally checked BITWISE against the Go kernel's candidate
// 0 (the autotuner may pick any of them mid-training, on any host), and the
// dispatcher and every candidate are held to the row-invariance contract
// like the forward product's.
func FuzzMatMulTInto(f *testing.F) {
	seedTransposedCorpus(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint16, seed uint64, accumulate bool) {
		m, k, n := int(mr%320), int(kr%320), int(nr%224)
		rng := NewRNG(seed | 1)
		a, b := New(m, k), New(n, k)
		fillSeq(a, rng)
		fillSeq(b, rng)

		want := refMatMulT(a, b)
		cSeed := New(m, n)
		fillSeq(cSeed, rng)
		if accumulate {
			Add(want, cSeed)
		}

		var first *Tensor
		bothGemmKernels(t, func() {
			got := cSeed.Clone()
			MatMulTInto(got, a, b, accumulate)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("MatMulTInto(%dx%dx%d, acc=%v) differs from naive by %g", m, k, n, accumulate, d)
			}

			if m == 0 || k == 0 || n == 0 {
				return
			}
			for ci, cand := range tuneCandsT {
				out := cSeed.Clone()
				gemmV2(gemmNT, out.data, a.data, b.data, m, k, n, accumulate, cand)
				if d := MaxAbsDiff(out, want); d > tol(k) {
					t.Fatalf("NT candidate %d (%+v) on %dx%dx%d differs from naive by %g", ci, cand, m, k, n, d)
				}
				if first == nil {
					first = out
				} else if i, ok := bitwiseEqual(out, first); !ok {
					t.Fatalf("NT candidate %d (%+v) on %dx%dx%d: not bitwise-equal to the Go kernel's candidate 0 at index %d",
						ci, cand, m, k, n, i)
				}
			}
			lo, hi := rowWindow(m, seed)
			checkRowInvariant(t, "MatMulTInto", got, cSeed, rowHeights, lo, hi, 0, func(out *Tensor, lo, hi int) {
				MatMulTInto(out, a.Slice(lo, hi), b, accumulate)
			})
			for ci, cand := range tuneCandsT {
				checkRowInvariant(t, fmt.Sprintf("NT candidate %d", ci), first, cSeed, rowHeights, lo, hi, ci, func(out *Tensor, lo, hi int) {
					gemmV2(gemmNT, out.data, a.data[lo*k:hi*k], b.data, hi-lo, k, n, accumulate, cand)
				})
			}
		})
	})
}

// FuzzTMatMulInto is FuzzMatMulTInto's twin for C = Aᵀ·B, which
// additionally exercises the per-block Aᵀ transpose-pack.
func FuzzTMatMulInto(f *testing.F) {
	seedTransposedCorpus(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint16, seed uint64, accumulate bool) {
		m, k, n := int(mr%320), int(kr%320), int(nr%224)
		rng := NewRNG(seed | 1)
		a, b := New(k, m), New(k, n)
		fillSeq(a, rng)
		fillSeq(b, rng)

		want := refTMatMul(a, b)
		cSeed := New(m, n)
		fillSeq(cSeed, rng)
		if accumulate {
			Add(want, cSeed)
		}

		var first *Tensor
		bothGemmKernels(t, func() {
			got := cSeed.Clone()
			TMatMulInto(got, a, b, accumulate)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("TMatMulInto(%dx%dx%d, acc=%v) differs from naive by %g", m, k, n, accumulate, d)
			}

			if m == 0 || k == 0 || n == 0 {
				return
			}
			for ci, cand := range tuneCandsT {
				out := cSeed.Clone()
				gemmV2(gemmTN, out.data, a.data, b.data, m, k, n, accumulate, cand)
				if d := MaxAbsDiff(out, want); d > tol(k) {
					t.Fatalf("TN candidate %d (%+v) on %dx%dx%d differs from naive by %g", ci, cand, m, k, n, d)
				}
				if first == nil {
					first = out
				} else if i, ok := bitwiseEqual(out, first); !ok {
					t.Fatalf("TN candidate %d (%+v) on %dx%dx%d: not bitwise-equal to the Go kernel's candidate 0 at index %d",
						ci, cand, m, k, n, i)
				}
			}
		})
	})
}

// seedTransposedCorpus seeds the degenerate corpus shared by both
// transposed-GEMM fuzz targets: dispatch-gate boundaries (the tiled
// fallback below k,n=16 — and, for C = Aᵀ·B only, below m=4), micro-kernel
// and strip-tail remainders,
// panel-boundary crossings (both transpose-packs have per-panel state),
// the row-block boundary (m past 256 splits the gemmTN Aᵀ pack at the
// packBufCap/kc clamp for kc=512), and empty dims.
func seedTransposedCorpus(f *testing.F) {
	f.Add(uint16(0), uint16(8), uint16(8), uint64(1), false)
	f.Add(uint16(1), uint16(16), uint16(16), uint64(2), false)   // m=1: tiled remainder row
	f.Add(uint16(3), uint16(15), uint16(17), uint64(3), true)    // k below the v2 gate: tiled
	f.Add(uint16(4), uint16(16), uint16(16), uint64(4), false)   // exactly at the v2 gate
	f.Add(uint16(5), uint16(129), uint16(130), uint64(5), false) // kc=128 boundary, nc remainder
	f.Add(uint16(8), uint16(257), uint16(129), uint64(6), true)  // kc=256 crossing
	f.Add(uint16(7), uint16(300), uint16(9), uint64(7), false)   // n below the v2 gate (C = Aᵀ·B: one strip + 1-wide tail)
	f.Add(uint16(40), uint16(300), uint16(200), uint64(8), false)
	f.Add(uint16(3), uint16(24), uint16(32), uint64(13), false)   // a served batch of 3: v2 at m < gemmMR (C = A·Bᵀ)
	f.Add(uint16(33), uint16(319), uint16(130), uint64(9), true)  // odd k: global pairwise tail
	f.Add(uint16(150), uint16(300), uint16(40), uint64(10), true) // tall m, two remainder rows
	f.Add(uint16(300), uint16(319), uint16(66), uint64(11), true) // m crosses the TN kc=512 mc clamp (256)
	f.Add(uint16(319), uint16(318), uint16(223), uint64(12), true)
}

// FuzzCol2ImAdjoint checks the defining property of the backward lowering —
// <Im2Col(x), y> == <x, Col2Im(y)> for adjoint linear maps — over random
// kernel/stride/pad geometry, through the forms the conv layers call
// (Im2ColInto, Col2ImZeroInto), and pins the parallel Col2Im gather bitwise
// to the serial scatter at several worker counts on every fuzzed geometry.
func FuzzCol2ImAdjoint(f *testing.F) {
	// Seeded degenerate corpus: 1×1 kernels, stride > kernel (gap rows),
	// pad 0 and pad ≥ kernel, non-square inputs, minimum 1×1 output.
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(2), uint8(3), uint8(3), uint8(1), uint8(1), uint8(5), uint8(5), uint64(2))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(3), uint8(0), uint8(6), uint8(2), uint64(3)) // stride 3 > k: gap rows
	f.Add(uint8(2), uint8(4), uint8(5), uint8(2), uint8(2), uint8(9), uint8(3), uint64(4))
	f.Add(uint8(1), uint8(1), uint8(3), uint8(1), uint8(3), uint8(0), uint8(7), uint64(5)) // pad == k
	f.Fuzz(func(t *testing.T, nr, cr, kr, sr, pr, hr, wr uint8, seed uint64) {
		n := 1 + int(nr%2)
		inC := 1 + int(cr%4)
		k := 1 + int(kr%5)
		stride := 1 + int(sr%3)
		pad := int(pr % 4)
		inH := k + int(hr%10)
		inW := k + int(wr%10)
		s := ConvSpec{InC: inC, OutC: 1, Kernel: k, Stride: stride, Pad: pad, InH: inH, InW: inW}
		if s.OutH() < 1 || s.OutW() < 1 {
			t.Skip("degenerate output")
		}
		rng := NewRNG(seed | 1)
		x := New(n, inC, inH, inW)
		fillSeq(x, rng)
		cols := New(n*s.OutH()*s.OutW(), inC*k*k)
		Im2ColInto(cols, x, s)
		y := New(cols.Dim(0), cols.Dim(1))
		fillSeq(y, rng)

		lhs := Dot(cols, y)
		back := New(n, inC, inH, inW)
		Col2ImZeroInto(back, y, s, n)
		rhs := Dot(x, back)
		if scale := math.Abs(lhs) + math.Abs(rhs) + 1; math.Abs(lhs-rhs) > 1e-4*scale {
			t.Fatalf("adjoint identity violated for %+v n=%d: <Im2Col(x),y>=%g vs <x,Col2Im(y)>=%g",
				s, n, lhs, rhs)
		}

		ref := New(n, inC, inH, inW)
		col2imSerial(ref.Data(), y.Data(), s, n)
		defer SetWorkers(SetWorkers(0))
		for _, w := range []int{1, 2, 3, 8} {
			SetWorkers(w)
			out := x.Clone() // stale contents the gather must overwrite
			Col2ImZeroInto(out, y, s, n)
			if i, ok := bitwiseEqual(out, ref); !ok {
				t.Fatalf("workers=%d %+v: parallel Col2Im differs from serial at index %d", w, s, i)
			}
		}
	})
}
