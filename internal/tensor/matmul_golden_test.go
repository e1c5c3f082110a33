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

func TestTransposeGolden(t *testing.T) {
	rng := NewRNG(45)
	for _, s := range [][2]int{{1, 1}, {3, 7}, {32, 32}, {33, 65}, {128, 40}} {
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
// count (shared pack is the point of that regime), k below every kc
// candidate, n below every nc candidate, single-row and single-column
// outputs, panel-boundary remainders, shapes spanning several panels, strip
// tails of every width class, and tall m with every m mod 4 remainder.
var v2Shapes = [][3]int{
	{1, 16, 16},   // m=1: a lone remainder row
	{4, 16, 1},    // n=1: one-column panels, 1-wide strip tail
	{3, 300, 40},  // m below gemmMR after chunking, 8-aligned strips
	{5, 700, 130}, // k spans panels with remainder, n just over one nc, 2-wide tail
	{8, 64, 520},  // n spans nc candidates with remainder
	{6, 530, 9},   // k just past the 512 panel, one full strip + 1-wide tail
	{31, 257, 129},
	{64, 512, 256},  // exact panel multiples
	{97, 1030, 70},  // 6-wide strip tail
	{150, 300, 40},  // tall m, two remainder rows
	{129, 256, 135}, // one remainder row, 7-wide strip tail
}

// TestGEMMV2CandidatesGolden pins every autotune candidate — direct-B and
// the 8-wide strip blockings, under both strip kernels — against the naive
// reference at the degenerate shapes, under a worker count larger than m
// for the small shapes (the regime the shared pack exists for). It also
// asserts the candidates agree BITWISE, across kernels too: every kc
// candidate is even and every kernel accumulates each C element with the
// same pairwise k-association, so neither the autotuner's choice nor the
// host's micro-kernel can ever change results.
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
				for ci, cand := range tuneCands {
					got := New(m, n)
					gemmV2(gemmNN, got.data, a.data, b.data, m, k, n, false, cand)
					if d := MaxAbsDiff(got, want); d > tol(k) {
						t.Fatalf("candidate %d (%+v): differs from naive by %g", ci, cand, d)
					}
					if first == nil {
						first = got
					} else if i, ok := bitwiseEqual(got, first); !ok {
						t.Fatalf("candidate %d (%+v): not bitwise-equal to the Go kernel's candidate 0 at index %d", ci, cand, i)
					}
					// Accumulating form: C = seed + A·B.
					acc := New(m, n)
					fillSeq(acc, rng)
					wantAcc := acc.Clone()
					Add(wantAcc, want)
					gemmV2(gemmNN, acc.data, a.data, b.data, m, k, n, true, cand)
					if d := MaxAbsDiff(acc, wantAcc); d > tol(k) {
						t.Fatalf("candidate %d (%+v) accumulate: differs by %g", ci, cand, d)
					}
				}
			})
		})
	}
}

// TestGEMMRowInvariantServingShapes is the always-on golden of the
// row-invariance contract (stated above gemm) over the products a served
// model runs: per shape, the rows of one sample — 16 for the benchmark GPT
// (hidden 64, vocab 256), 1 for an MLP or a classifier head — computed alone
// and inside batches of 2, 4 and 8 samples, through the dispatcher and
// through every candidate at every worker count, under both strip kernels,
// carry identical bits.
func TestGEMMRowInvariantServingShapes(t *testing.T) {
	for _, s := range []struct {
		name       string
		v          gemmVariant
		rows, k, n int
	}{
		{"gpt/qkv", gemmNN, 16, 64, 192},
		{"gpt/proj", gemmNN, 16, 64, 64},
		{"gpt/fc1+head", gemmNN, 16, 64, 256},
		{"gpt/fc2", gemmNN, 16, 256, 64},
		{"mlp/hidden", gemmNN, 1, 24, 32},
		{"mlp/classes", gemmNN, 1, 32, 10}, // n < 16: saxpy at every height
		{"sparselinear/dense-masked", gemmNT, 1, 24, 32},
		{"conv/3x3x8", gemmNT, 16, 72, 16},
		{"conv/3x3x3", gemmNT, 64, 27, 8}, // n < 16: tiled at every height
	} {
		t.Run(s.name, func(t *testing.T) {
			m, k, n := 8*s.rows, s.k, s.n
			rng := NewRNG(49)
			a, b, zero := New(m, k), New(k, n), New(m, n)
			cands, mul := tuneCands[:], MatMulInto
			if s.v == gemmNT {
				b, cands, mul = New(n, k), tuneCandsT[:], MatMulTInto
			}
			fillSeq(a, rng)
			fillSeq(b, rng)
			heights := []int{s.rows, 2 * s.rows, 4 * s.rows, 8 * s.rows}
			full := New(m, n)
			mul(full, a, b, false) // once, under the host's kernel: both halves must match it
			bothGemmKernels(t, func() {
				for rot := range rowWorkers {
					checkRowInvariant(t, "dispatcher", full, zero, heights, 0, m, rot, func(out *Tensor, lo, hi int) {
						mul(out, a.Slice(lo, hi), b, false)
					})
					if n < 16 {
						continue // the candidates are not what dispatch runs here
					}
					for ci, cand := range cands {
						checkRowInvariant(t, fmt.Sprintf("candidate %d", ci), full, zero, heights, 0, m, rot, func(out *Tensor, lo, hi int) {
							gemmV2(s.v, out.data, a.data[lo*k:hi*k], b.data, hi-lo, k, n, false, cand)
						})
					}
				}
			})
		})
	}
}

// TestMatMulSharedPanelRace hammers MatMulInto from many goroutines so
// concurrent calls contend on the shared panel buffer pool, the autotune
// table and the worker pool. Run under -race in CI; correctness of each
// result is also checked.
func TestMatMulSharedPanelRace(t *testing.T) {
	old := SetWorkers(4)
	defer SetWorkers(old)
	rng := NewRNG(48)
	shapes := [][3]int{{40, 300, 64}, {8, 512, 128}, {130, 96, 33}}
	type prob struct {
		a, b, want *Tensor
	}
	probs := make([]prob, len(shapes))
	for i, s := range shapes {
		a, b := New(s[0], s[1]), New(s[1], s[2])
		fillSeq(a, rng)
		fillSeq(b, rng)
		probs[i] = prob{a: a, b: b, want: refMatMul(a, b)}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := probs[g%len(probs)]
			m, n := p.a.shape[0], p.b.shape[1]
			c := New(m, n)
			for it := 0; it < 25; it++ {
				MatMulInto(c, p.a, p.b, false)
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
	// Hermetic allocation counting: AllocsPerRun tallies process-wide
	// mallocs, so a background tune-table save (triggered whenever a GEMM
	// bucket happens to freeze nearby) would show up as phantom allocs.
	// "off" makes the freeze path inert; persistence itself is pinned by
	// TestTunePersistenceRoundTripAllocFree.
	t.Setenv("SAMO_GEMM_TUNE", "off")

	a, b, c := New(64, 96), New(96, 80), New(64, 80)
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
	MatMulTInto(c, a, New(80, 96), false)
	bT := New(80, 96)
	if n := testing.AllocsPerRun(50, func() { MatMulTInto(c, a, bT, false) }); n != 0 {
		t.Fatalf("MatMulTInto allocates %.1f per call, want 0", n)
	}
	aT := New(96, 64)
	TMatMulInto(c, aT, b, false)
	if n := testing.AllocsPerRun(50, func() { TMatMulInto(c, aT, b, false) }); n != 0 {
		t.Fatalf("TMatMulInto allocates %.1f per call, want 0", n)
	}
}
