package tensor

import (
	"fmt"
	"sync"
	"testing"
)

// naiveMatMul is the i-j-k reference triple loop the micro-kernels are
// pinned against. It must stay dumb: the tests exist to catch blocking and
// edge-handling bugs in the optimized kernels.
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.data[i*k+kk] * b.data[kk*n+j]
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

func refMatMulT(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.data[i*k+kk] * b.data[j*k+kk]
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

func refTMatMul(a, b *Tensor) *Tensor {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.data[kk*m+i] * b.data[kk*n+j]
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

// goldenShapes stresses every edge of the blocked kernels: tile remainders
// in every dimension (m,k,n not multiples of 4/8/128/256), degenerate m=0,
// k=0, n=1 cases, exact tile multiples, and shapes large enough to take the
// packed parallel path.
var goldenShapes = [][3]int{
	{0, 8, 8},
	{8, 0, 8},
	{1, 1, 1},
	{7, 9, 1},
	{3, 5, 7},
	{4, 16, 16},
	{5, 17, 33},
	{13, 129, 31},
	{37, 65, 129},
	{63, 130, 129},
	{64, 128, 128},
	{129, 257, 130},
}

// tol returns an absolute tolerance for float32 products summed over k: the
// optimized kernels re-associate the k sum (pairwise unroll, block partial
// sums), so results differ from the naive loop by O(k·eps·|terms|).
func tol(k int) float64 { return 1e-5 * float64(k+1) }

func fillSeq(t *Tensor, rng *RNG) {
	for i := range t.data {
		t.data[i] = float32(rng.Float64()*2 - 1)
	}
}

func TestMatMulGolden(t *testing.T) {
	rng := NewRNG(42)
	for _, s := range goldenShapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(m, k), New(k, n)
			fillSeq(a, rng)
			fillSeq(b, rng)
			want := refMatMul(a, b)
			got := MatMul(a, b)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("MatMul differs from naive by %g (tol %g)", d, tol(k))
			}
			// Into with accumulate: C = seed + A·B.
			acc := New(m, n)
			fillSeq(acc, rng)
			wantAcc := acc.Clone()
			Add(wantAcc, want)
			MatMulInto(acc, a, b, true)
			if d := MaxAbsDiff(acc, wantAcc); d > tol(k) {
				t.Fatalf("MatMulInto(accumulate) differs by %g", d)
			}
		})
	}
}

func TestMatMulTGolden(t *testing.T) {
	rng := NewRNG(43)
	for _, s := range goldenShapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(m, k), New(n, k)
			fillSeq(a, rng)
			fillSeq(b, rng)
			want := refMatMulT(a, b)
			got := MatMulT(a, b)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("MatMulT differs from naive by %g (tol %g)", d, tol(k))
			}
			out := New(m, n)
			MatMulTInto(out, a, b, false)
			if d := MaxAbsDiff(out, want); d > tol(k) {
				t.Fatalf("MatMulTInto differs by %g", d)
			}
		})
	}
}

func TestTMatMulGolden(t *testing.T) {
	rng := NewRNG(44)
	for _, s := range goldenShapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(k, m), New(k, n)
			fillSeq(a, rng)
			fillSeq(b, rng)
			want := refTMatMul(a, b)
			got := TMatMul(a, b)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("TMatMul differs from naive by %g (tol %g)", d, tol(k))
			}
			out := New(m, n)
			TMatMulInto(out, a, b, false)
			if d := MaxAbsDiff(out, want); d > tol(k) {
				t.Fatalf("TMatMulInto differs by %g", d)
			}
		})
	}
}

// TestTransposeGolden checks Transpose element by element, over every
// rows mod 4 of the four-row blocks, ragged 32×32 tiles, a sparse layer's
// xᵀ (48×640), a copy of many tiles (579×517) and empty ones.
func TestTransposeGolden(t *testing.T) {
	rng := NewRNG(45)
	for _, s := range [][2]int{{1, 1}, {3, 7}, {6, 5}, {32, 32}, {33, 65}, {128, 40}, {35, 33}, {48, 640}, {579, 517}, {5, 0}, {0, 5}} {
		m, n := s[0], s[1]
		a := New(m, n)
		fillSeq(a, rng)
		tr := Transpose(a)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if tr.At(j, i) != a.At(i, j) {
					t.Fatalf("(%d,%d): transpose mismatch", i, j)
				}
			}
		}
		back := Transpose(tr)
		if MaxAbsDiff(back, a) != 0 {
			t.Fatalf("%dx%d: double transpose is not identity", m, n)
		}
	}
}

// v2Shapes stresses the shared-pack pipeline's edges: m below the worker
// count (shared pack is the point of that regime), k below the kc
// blocking, n below every nc blocking, single-row and single-column
// outputs, panel-boundary remainders, shapes spanning several panels, strip
// tails of every width class, and tall m with every m mod 4 remainder.
var v2Shapes = [][3]int{
	{1, 16, 16},   // m=1: a lone remainder row
	{4, 16, 1},    // n=1: one-column panels, 1-wide strip tail
	{3, 300, 40},  // m below gemmMR after chunking, 8-aligned strips
	{5, 700, 130}, // k spans panels with remainder, n just over one nc, 2-wide tail
	{8, 64, 520},  // n spans both nc blockings with remainder
	{6, 530, 9},   // k just past two kc panels, one full strip + 1-wide tail
	{31, 257, 129},
	{64, 512, 256},  // exact panel multiples
	{97, 1030, 70},  // 6-wide strip tail
	{150, 300, 40},  // tall m, two remainder rows
	{129, 256, 135}, // one remainder row, 7-wide strip tail
}

// TestGEMMV2CandidatesGolden pins both blockings the rule picks between —
// B in place and B packed in 8-wide strips, each under both strip kernels —
// against the naive reference at the degenerate shapes and at every m, not
// only the m the rule gives each, under a worker count larger than m for
// the small shapes (the regime the shared pack exists for). It also asserts
// they agree BITWISE, across kernels too: both kc are even and every kernel
// accumulates each C element with the same pairwise k-association, so
// neither the rule's m line nor the host's micro-kernel can ever change
// results.
func TestGEMMV2CandidatesGolden(t *testing.T) {
	old := SetWorkers(8)
	defer SetWorkers(old)
	rng := NewRNG(47)
	for _, s := range v2Shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(m, k), New(k, n)
			fillSeq(a, rng)
			fillSeq(b, rng)
			want := refMatMul(a, b)
			var first *Tensor
			bothGemmKernels(t, func() {
				for _, bl := range ruleBlockings(gemmNN) {
					got := New(m, n)
					gemmV2(gemmNN, got.data, a.data, b.data, m, k, n, false, bl)
					if d := MaxAbsDiff(got, want); d > tol(k) {
						t.Fatalf("blocking %+v: differs from naive by %g", bl, d)
					}
					if first == nil {
						first = got
					} else if i, ok := bitwiseEqual(got, first); !ok {
						t.Fatalf("blocking %+v: not bitwise-equal to the Go kernel's in-place sweep at index %d", bl, i)
					}
					// Accumulating form: C = seed + A·B.
					acc := New(m, n)
					fillSeq(acc, rng)
					wantAcc := acc.Clone()
					Add(wantAcc, want)
					gemmV2(gemmNN, acc.data, a.data, b.data, m, k, n, true, bl)
					if d := MaxAbsDiff(acc, wantAcc); d > tol(k) {
						t.Fatalf("blocking %+v accumulate: differs by %g", bl, d)
					}
				}
			})
		})
	}
}

// TestGEMMRowInvariantServingShapes is the always-on golden of the
// row-invariance contract (stated above gemm) over the products a served
// model runs: per shape, rows computed in blocks of every height in
// servingHeights — a lone MLP sample (1), small MLP batches (2, 3), one GPT
// sample of the benchmark model (16: hidden 64, vocab 256), eight of them
// (128) and heights just across and well above gemmRule's m line (127, 129,
// 256) — through the dispatcher and through every blocking the rule can
// pick at every worker count, under both strip kernels, carry identical
// bits. So for the forward products the dispatcher itself reads B in place
// at some heights and packs it at others, and must not tell.
func TestGEMMRowInvariantServingShapes(t *testing.T) {
	const m = 256
	for _, s := range []struct {
		name string
		v    gemmVariant
		k, n int
	}{
		{"gpt/qkv", gemmNN, 64, 192},
		{"gpt/proj", gemmNN, 64, 64},
		{"gpt/fc1+head", gemmNN, 64, 256},
		{"gpt/fc2", gemmNN, 256, 64},
		{"mlp/hidden", gemmNN, 24, 32},
		{"mlp/classes", gemmNN, 32, 10}, // n < 16: saxpy at every height
		{"sparselinear/dense-masked", gemmNT, 24, 32},
		{"conv/3x3x8", gemmNT, 72, 16},
		{"conv/3x3x3", gemmNT, 27, 8}, // n < 16: tiled at every height
	} {
		t.Run(s.name, func(t *testing.T) {
			k, n := s.k, s.n
			rng := NewRNG(49)
			a, b, zero := New(m, k), New(k, n), New(m, n)
			mul := MatMulInto
			if s.v == gemmNT {
				b, mul = New(n, k), MatMulTInto
			}
			fillSeq(a, rng)
			fillSeq(b, rng)
			full := New(m, n)
			mul(full, a, b, false) // once, under the host's kernel: both halves must match it
			bothGemmKernels(t, func() {
				for rot := range rowWorkers {
					checkRowInvariant(t, "dispatcher", full, zero, servingHeights, 0, m, rot, func(out *Tensor, lo, hi int) {
						mul(out, a.Slice(lo, hi), b, false)
					})
					if n < 16 {
						continue // the blockings are not what dispatch runs here
					}
					for _, bl := range ruleBlockings(s.v) {
						checkRowInvariant(t, fmt.Sprintf("blocking %+v", bl), full, zero, servingHeights, 0, m, rot, func(out *Tensor, lo, hi int) {
							gemmV2(s.v, out.data, a.data[lo*k:hi*k], b.data, hi-lo, k, n, false, bl)
						})
					}
				}
			})
		})
	}
}

// servingHeights are TestGEMMRowInvariantServingShapes' block heights; the
// middle three straddle gemmRule's line.
var servingHeights = []int{1, 2, 3, 16, gemmDirectMaxM - 1, gemmDirectMaxM, gemmDirectMaxM + 1, 256}

// TestMatMulSharedPanelRace hammers MatMulInto from many goroutines so
// concurrent calls contend on the shared panel buffer pool and the worker
// pool, then MatMulTInto at two workers on a shape whose NT pack fans out
// with its chunk bound inside a strip (panel columns 0–50 and 50–100:
// strip 48–56 goes to the scatter on both sides, the whole strips to the
// vector pack). Run under -race in CI; correctness of each result is also
// checked.
func TestMatMulSharedPanelRace(t *testing.T) {
	old := SetWorkers(4)
	defer SetWorkers(old)
	rng := NewRNG(48)
	var probs []racedProduct
	for _, s := range [][3]int{{40, 300, 64}, {8, 512, 128}, {130, 96, 33}} {
		a, b := New(s[0], s[1]), New(s[1], s[2])
		fillSeq(a, rng)
		fillSeq(b, rng)
		probs = append(probs, racedProduct{a, b, refMatMul(a, b), MatMulInto})
	}
	hammer(t, probs, 8, 25)
	SetWorkers(2)
	a, b := New(256, 300), New(100, 300)
	fillSeq(a, rng)
	fillSeq(b, rng)
	hammer(t, []racedProduct{{a, b, refMatMulT(a, b), MatMulTInto}}, 4, 4)
}

// racedProduct is one product TestMatMulSharedPanelRace runs concurrently.
type racedProduct struct {
	a, b, want *Tensor
	mul        func(c, a, b *Tensor, accumulate bool)
}

// hammer runs problem g mod len(probs) on each of goroutines goroutines,
// iters times, checking every result against its reference.
func hammer(t *testing.T, probs []racedProduct, goroutines, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := probs[g%len(probs)]
			c := New(p.want.shape[0], p.want.shape[1])
			for it := 0; it < iters; it++ {
				p.mul(c, p.a, p.b, false)
				if d := MaxAbsDiff(c, p.want); d > tol(p.a.shape[1]) {
					errs <- fmt.Errorf("goroutine %d iter %d: diff %g", g, it, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMatMulIntoZeroAlloc(t *testing.T) {
	a, b, c := New(160, 96), New(96, 80), New(160, 80) // 160 rows: B packed
	rng := NewRNG(46)
	fillSeq(a, rng)
	fillSeq(b, rng)
	MatMulInto(c, a, b, false) // warm pools
	for _, acc := range []bool{false, true} {
		acc := acc
		if n := testing.AllocsPerRun(50, func() { MatMulInto(c, a, b, acc) }); n != 0 {
			t.Fatalf("MatMulInto(accumulate=%v) allocates %.1f per call, want 0", acc, n)
		}
	}
	// A served MLP sample and a served GPT sample: B read in place.
	for _, rows := range []int{1, 16} {
		ar, cr := a.Slice(0, rows), c.Slice(0, rows)
		MatMulInto(cr, ar, b, false)
		if n := testing.AllocsPerRun(50, func() { MatMulInto(cr, ar, b, false) }); n != 0 {
			t.Fatalf("MatMulInto(m=%d) allocates %.1f per call, want 0", rows, n)
		}
	}
	MatMulTInto(c, a, New(80, 96), false)
	bT := New(80, 96)
	if n := testing.AllocsPerRun(50, func() { MatMulTInto(c, a, bT, false) }); n != 0 {
		t.Fatalf("MatMulTInto allocates %.1f per call, want 0", n)
	}
	aT := New(96, 160)
	TMatMulInto(c, aT, b, false)
	if n := testing.AllocsPerRun(50, func() { TMatMulInto(c, aT, b, false) }); n != 0 {
		t.Fatalf("TMatMulInto allocates %.1f per call, want 0", n)
	}
	// A data-parallel rank's backward at 4 rows through a 768² layer: the
	// small-k weight gradient (accumulating) and the m = 4 input gradient.
	x, dy, w, dW, dx := New(4, 768), New(4, 768), New(768, 768), New(768, 768), New(4, 768)
	TMatMulInto(dW, x, dy, true)
	if n := testing.AllocsPerRun(20, func() { TMatMulInto(dW, x, dy, true) }); n != 0 {
		t.Fatalf("TMatMulInto(k=4) allocates %.1f per call, want 0", n)
	}
	MatMulTInto(dx, dy, w, false)
	if n := testing.AllocsPerRun(20, func() { MatMulTInto(dx, dy, w, false) }); n != 0 {
		t.Fatalf("MatMulTInto(m=4) allocates %.1f per call, want 0", n)
	}
}
