package tensor

import (
	"fmt"
	"testing"
)

// TestGEMMTransposedCandidatesGolden pins every transposed-variant autotune
// candidate — the 8-wide strip blockings under both strip kernels, with B
// transpose-packed for C = A·Bᵀ and A transpose-packed for C = Aᵀ·B —
// against the naive references at the same degenerate shapes the forward
// pipeline is pinned on, under a worker count larger than m for the small
// shapes. As for the forward product, the candidates must agree BITWISE,
// across kernels too: they share the sweep, so the per-element pairwise
// k-association is identical and neither the autotuner's choice nor the
// host's micro-kernel can ever change results.
func TestGEMMTransposedCandidatesGolden(t *testing.T) {
	old := SetWorkers(8)
	defer SetWorkers(old)
	rng := NewRNG(52)
	// The forward v2Shapes plus the transposed-only edges: m past 256
	// splits the gemmTN Aᵀ pack at the packBufCap/kc clamp for the kc=512
	// candidate.
	shapes := append(append([][3]int{}, v2Shapes...), [3]int{300, 520, 40}, [3]int{270, 600, 72})
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("NT/%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(m, k), New(n, k)
			fillSeq(a, rng)
			fillSeq(b, rng)
			want := refMatMulT(a, b)
			checkTransposedCands(t, gemmNT, a, b, want, m, k, n, rng)
		})
		t.Run(fmt.Sprintf("TN/%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(k, m), New(k, n)
			fillSeq(a, rng)
			fillSeq(b, rng)
			want := refTMatMul(a, b)
			checkTransposedCands(t, gemmTN, a, b, want, m, k, n, rng)
		})
	}
}

func checkTransposedCands(t *testing.T, v gemmVariant, a, b, want *Tensor, m, k, n int, rng *RNG) {
	t.Helper()
	var first *Tensor
	bothGemmKernels(t, func() {
		for ci, cand := range tuneCandsT {
			got := New(m, n)
			gemmV2(v, got.data, a.data, b.data, m, k, n, false, cand)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("candidate %d (%+v): differs from naive by %g", ci, cand, d)
			}
			if first == nil {
				first = got
			} else if i, ok := bitwiseEqual(got, first); !ok {
				t.Fatalf("candidate %d (%+v): not bitwise-equal to the Go kernel's candidate 0 at index %d", ci, cand, i)
			}
			// Accumulating form: C = seed + product.
			acc := New(m, n)
			fillSeq(acc, rng)
			wantAcc := acc.Clone()
			Add(wantAcc, want)
			gemmV2(v, acc.data, a.data, b.data, m, k, n, true, cand)
			if d := MaxAbsDiff(acc, wantAcc); d > tol(k) {
				t.Fatalf("candidate %d (%+v) accumulate: differs by %g", ci, cand, d)
			}
		}
	})
}

// transposedBackwardShapes are the Figure-1 FC backward products the
// determinism goldens run on: the batch-576 input-gradient (A·Bᵀ) and
// weight-gradient (Aᵀ·B) shapes, plus the small-m / small-n regimes where
// the shared pack matters most.
var transposedBackwardShapes = []struct {
	name    string
	v       gemmVariant
	m, k, n int
}{
	{"NT/input_grad_576x128", gemmNT, 576, 128, 128},
	{"NT/input_grad_8x512", gemmNT, 8, 512, 512},
	{"TN/weight_grad_128x576", gemmTN, 128, 576, 128},
	{"TN/weight_grad_16x576x512", gemmTN, 16, 576, 512},
}

// TestTransposedGEMMBitwiseDeterminism pins MatMulT/TMatMul to one
// reference output BITWISE at every worker count the training stack uses,
// across every autotune candidate and under both strip kernels — the same
// contract the forward GEMM and col2im carry: resizing the pool, re-tuning
// a bucket or moving to another host can never perturb the backward passes.
// The reference is the Go kernel's candidate 0 at one worker; the public
// dispatcher is checked on top of the candidates, whatever probe state its
// bucket is in.
func TestTransposedGEMMBitwiseDeterminism(t *testing.T) {
	defer SetWorkers(SetWorkers(0))
	for _, tc := range transposedBackwardShapes {
		t.Run(tc.name, func(t *testing.T) {
			rng := NewRNG(53)
			var a, b *Tensor
			if tc.v == gemmNT {
				a, b = New(tc.m, tc.k), New(tc.n, tc.k)
			} else {
				a, b = New(tc.k, tc.m), New(tc.k, tc.n)
			}
			fillSeq(a, rng)
			fillSeq(b, rng)
			var ref *Tensor
			bothGemmKernels(t, func() {
				if ref == nil {
					SetWorkers(1)
					ref = New(tc.m, tc.n)
					gemmV2(tc.v, ref.data, a.data, b.data, tc.m, tc.k, tc.n, false, tuneCandsT[0])
				}
				for _, w := range []int{1, 2, 3, 4, 8, 16} {
					SetWorkers(w)
					for ci, cand := range tuneCandsT {
						out := New(tc.m, tc.n)
						gemmV2(tc.v, out.data, a.data, b.data, tc.m, tc.k, tc.n, false, cand)
						if i, ok := bitwiseEqual(out, ref); !ok {
							t.Fatalf("workers=%d candidate %d (%+v): differs from reference at index %d",
								w, ci, cand, i)
						}
					}
					out := New(tc.m, tc.n)
					if tc.v == gemmNT {
						MatMulTInto(out, a, b, false)
					} else {
						TMatMulInto(out, a, b, false)
					}
					if i, ok := bitwiseEqual(out, ref); !ok {
						t.Fatalf("workers=%d: dispatcher differs from reference at index %d", w, i)
					}
				}
			})
		})
	}
}

// TestGemmPackATTiledGolden pins the tiled (32×32-block) Aᵀ transpose-pack
// bitwise to the per-element gather it replaced: the pack is pure data
// relocation, so every packed element must match
// a[(k0+kk)·m + i0+ii] exactly — including ragged tiles, offset (i0, k0)
// blocks and the full pooled-buffer block — and chunked invocation (how
// parallel.Run drives it) must produce the same bytes as one chunk.
func TestGemmPackATTiledGolden(t *testing.T) {
	rng := NewRNG(61)
	for _, s := range []struct{ m, k, i0, mcur, k0, kcur int }{
		{64, 64, 0, 64, 0, 64},
		{100, 300, 0, 100, 0, 256},
		{300, 520, 128, 172, 256, 264}, // ragged tiles, offset block
		{37, 45, 5, 31, 7, 33},
		{256, 512, 0, 256, 0, 512}, // exactly fills the pooled buffer
	} {
		a := New(s.k, s.m) // gemmTN's A operand is (k, m)
		fillSeq(a, rng)
		got := make([]float32, s.mcur*s.kcur)
		j := gemmV2JobFree.Get()
		j.a, j.m = a.data, s.m
		j.i0, j.k0, j.kcur = s.i0, s.k0, s.kcur
		j.pa = got
		gemmPackATChunk(j, 0, s.mcur)
		for ii := 0; ii < s.mcur; ii++ {
			for kk := 0; kk < s.kcur; kk++ {
				want := a.data[(s.k0+kk)*s.m+s.i0+ii]
				if got[ii*s.kcur+kk] != want {
					t.Fatalf("%+v: packed (%d,%d) = %g, gather reference %g",
						s, ii, kk, got[ii*s.kcur+kk], want)
				}
			}
		}
		// Chunked invocation with an uneven split must relocate identically.
		chunked := make([]float32, s.mcur*s.kcur)
		j.pa = chunked
		cut := s.mcur/3 + 1
		gemmPackATChunk(j, 0, cut)
		gemmPackATChunk(j, cut, s.mcur)
		for i := range got {
			if chunked[i] != got[i] {
				t.Fatalf("%+v: chunked pack differs at %d", s, i)
			}
		}
		j.a, j.pa = nil, nil
		gemmV2JobFree.Put(j)
	}
}
