package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestGEMMTransposedCandidatesGolden pins the transposed variants' strip
// blocking under both strip kernels, with B transpose-packed for C = A·Bᵀ
// and A transpose-packed for C = Aᵀ·B, against the naive references at the
// same degenerate shapes the forward pipeline is pinned on, under a worker
// count larger than m for the small shapes. As for the forward product, the
// kernels must agree BITWISE: they share the sweep, so the per-element
// pairwise k-association is identical and the host's micro-kernel can never
// change results.
func TestGEMMTransposedCandidatesGolden(t *testing.T) {
	old := SetWorkers(8)
	defer SetWorkers(old)
	rng := NewRNG(52)
	// The forward v2Shapes plus the transposed-only edges: tall m across
	// several kc panels, and m past 512, which splits the gemmTN Aᵀ pack at
	// the packBufCap/kc clamp.
	shapes := append(append([][3]int{}, v2Shapes...), [3]int{300, 520, 40}, [3]int{270, 600, 72}, [3]int{530, 300, 24})
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
		for _, bl := range ruleBlockings(v) {
			got := New(m, n)
			gemmV2(v, got.data, a.data, b.data, m, k, n, false, bl)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("blocking %+v: differs from naive by %g", bl, d)
			}
			if first == nil {
				first = got
			} else if i, ok := bitwiseEqual(got, first); !ok {
				t.Fatalf("blocking %+v: not bitwise-equal to the Go kernel's at index %d", bl, i)
			}
			// Accumulating form: C = seed + product.
			acc := New(m, n)
			fillSeq(acc, rng)
			wantAcc := acc.Clone()
			Add(wantAcc, want)
			gemmV2(v, acc.data, a.data, b.data, m, k, n, true, bl)
			if d := MaxAbsDiff(acc, wantAcc); d > tol(k) {
				t.Fatalf("blocking %+v accumulate: differs by %g", bl, d)
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
// reference output BITWISE at every worker count the training stack uses
// and under both strip kernels — the same contract the forward GEMM
// carries: resizing the pool or moving to another host can never
// perturb the backward passes. The reference is the Go kernel at one
// worker; the public dispatcher is checked beside the rule's blocking.
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
					gemmV2(tc.v, ref.data, a.data, b.data, tc.m, tc.k, tc.n, false, gemmStrip)
				}
				for _, w := range []int{1, 2, 3, 4, 8, 16} {
					SetWorkers(w)
					for _, bl := range ruleBlockings(tc.v) {
						out := New(tc.m, tc.n)
						gemmV2(tc.v, out.data, a.data, b.data, tc.m, tc.k, tc.n, false, bl)
						if i, ok := bitwiseEqual(out, ref); !ok {
							t.Fatalf("workers=%d blocking %+v: differs from reference at index %d", w, bl, i)
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

// TestGemmPackNTVectorGolden holds the NT pack with the vector kernel
// selected (gemmPackNT8x8AVX2's 8×8 transposes over whole 8-column groups)
// to the scalar scatter byte for byte, in the 8-wide strip layout and, on an
// AVX-512 host, in the 16-wide one: over B of arbitrary bit patterns (NaN
// payloads, subnormals), at ragged ncur, at kcur below 8 and not a multiple
// of 8, at an offset panel (j0, k0), and for chunks of panel columns — what
// parallel.Run hands one worker — whose bounds fall inside a strip. Each
// chunk is packed alone into a panel filled with a sentinel, so a float
// outside the chunk's columns, or a ragged strip's tail lane, must stay
// unwritten: no two chunks may store into one group's lanes.
func TestGemmPackNTVectorGolden(t *testing.T) {
	if !gemmVector {
		t.Skip("host has no AVX2: the scalar scatter is the only pack")
	}
	hostWide := gemmWide
	defer func() { gemmVector, gemmWide = true, hostWide }()
	rng := NewRNG(62)
	const sentinel = 0x7FC0DEAD
	for _, s := range []struct{ n, k, j0, ncur, k0, kcur int }{
		{20, 300, 0, 20, 0, 256},
		{100, 300, 0, 100, 256, 44},
		{130, 45, 128, 2, 0, 45},
		{64, 64, 0, 64, 0, 64},
		{37, 7, 5, 31, 0, 7},
		{17, 19, 0, 17, 3, 16},
		{768, 768, 640, 128, 512, 256},
	} {
		b := make([]float32, s.n*s.k)
		for i := range b {
			b[i] = math.Float32frombits(uint32(rng.Float64() * (1 << 32)))
		}
		pack := func(vec bool, lo, hi int) []float32 {
			gemmVector = vec
			pb := make([]float32, (s.ncur+7)&^7*s.kcur)
			for i := range pb {
				pb[i] = math.Float32frombits(sentinel)
			}
			j := gemmV2JobFree.Get()
			j.b, j.pb = b, pb
			j.k, j.k0, j.j0, j.ncur, j.kcur = s.k, s.k0, s.j0, s.ncur, s.kcur
			gemmPackStripNTChunk(j, lo, hi)
			j.b, j.pb = nil, nil
			gemmV2JobFree.Put(j)
			return pb
		}
		for _, wide := range []bool{false, hostWide} {
			gemmWide = wide
			for _, c := range [][2]int{{0, s.ncur}, {3, s.ncur}, {8, s.ncur}, {0, 13}, {13, 21}, {1, 2}, {s.ncur / 2, s.ncur}, {5, 30}, {16, 40}} {
				lo, hi := c[0], min(c[1], s.ncur)
				if lo >= hi {
					continue
				}
				want, got := pack(false, lo, hi), pack(true, lo, hi)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%+v, wide=%v, chunk [%d,%d): panel[%d] = %#x under AVX2, %#x from the scatter",
							s, wide, lo, hi, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}
