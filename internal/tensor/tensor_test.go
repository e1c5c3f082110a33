package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 || a.Rank() != 2 || a.Dim(0) != 2 || a.Dim(1) != 3 {
		t.Fatalf("bad metadata: %v", a)
	}
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 {
		t.Errorf("At(1,2) = %g, want 5", a.At(1, 2))
	}
	if a.Data()[5] != 5 {
		t.Errorf("row-major layout violated: %v", a.Data())
	}
}

func TestFromSliceAliases(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	a := FromSlice(d, 2, 2)
	d[0] = 9
	if a.At(0, 0) != 9 {
		t.Error("FromSlice must alias, not copy")
	}
}

func TestReshapeInference(t *testing.T) {
	a := New(4, 6)
	b := a.Reshape(2, -1)
	if b.Dim(1) != 12 {
		t.Errorf("inferred dim = %d, want 12", b.Dim(1))
	}
	b.Set(7, 0, 0)
	if a.At(0, 0) != 7 {
		t.Error("Reshape must be a view")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad reshape should panic")
		}
	}()
	a.Reshape(5, -1)
}

func TestSliceView(t *testing.T) {
	a := New(4, 3)
	for i := 0; i < 12; i++ {
		a.Data()[i] = float32(i)
	}
	s := a.Slice(1, 3)
	if s.Dim(0) != 2 || s.At(0, 0) != 3 || s.At(1, 2) != 8 {
		t.Errorf("Slice view wrong: %v", s)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += float64(a.At(i, kk)) * float64(b.At(kk, j))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

func randTensor(shape []int, seed uint64) *Tensor {
	t := New(shape...)
	rng := NewRNG(seed)
	FillNormal(t, 1, rng)
	return t
}

func TestMatMulAgainstNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 31, 13}, {64, 64, 64}, {65, 129, 70}, {2, 200, 3}} {
		a := randTensor([]int{dims[0], dims[1]}, 1)
		b := randTensor([]int{dims[1], dims[2]}, 2)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if d := MaxAbsDiff(got, want); d > 1e-3 {
			t.Errorf("dims %v: max diff %g", dims, d)
		}
	}
}

func TestMatMulIntoAccumulate(t *testing.T) {
	a := randTensor([]int{5, 7}, 3)
	b := randTensor([]int{7, 4}, 4)
	c := MatMul(a, b)
	acc := c.Clone()
	MatMulInto(acc, a, b, true)
	want := c.Clone()
	Scale(want, 2)
	if d := MaxAbsDiff(acc, want); d > 1e-4 {
		t.Errorf("accumulate: max diff %g", d)
	}
}

func TestMatMulTAndTMatMul(t *testing.T) {
	a := randTensor([]int{6, 9}, 5)
	b := randTensor([]int{8, 9}, 6) // B is (n,k) for MatMulT
	got := MatMulT(a, b)
	want := MatMul(a, Transpose(b))
	if d := MaxAbsDiff(got, want); d > 1e-3 {
		t.Errorf("MatMulT: max diff %g", d)
	}
	c := randTensor([]int{9, 6}, 7) // A is (k,m) for TMatMul
	d2 := randTensor([]int{9, 5}, 8)
	got = TMatMul(c, d2)
	want = MatMul(Transpose(c), d2)
	if d := MaxAbsDiff(got, want); d > 1e-3 {
		t.Errorf("TMatMul: max diff %g", d)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(m8, n8 uint8) bool {
		m, n := int(m8%40)+1, int(n8%40)+1
		a := randTensor([]int{m, n}, uint64(m*100+n))
		return MaxAbsDiff(Transpose(Transpose(a)), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatMulWorkerInvariance(t *testing.T) {
	// Results must not depend on the worker count: partitioning is static
	// and each worker owns disjoint output rows.
	a := randTensor([]int{33, 47}, 9)
	b := randTensor([]int{47, 29}, 10)
	defer SetWorkers(SetWorkers(0))
	var c1 *Tensor
	bothGemmKernels(t, func() {
		if c1 == nil {
			SetWorkers(1)
			c1 = MatMul(a, b)
		}
		for _, w := range []int{1, 4} {
			SetWorkers(w)
			if i, ok := bitwiseEqual(MatMul(a, b), c1); !ok {
				t.Errorf("workers=%d: result differs from the Go kernel's at one worker at index %d", w, i)
			}
		}
	})
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := FromSlice([]float32{10, 20, 30, 40}, 4)
	c := a.Clone()
	Add(c, b)
	for i, w := range []float32{11, 22, 33, 44} {
		if c.Data()[i] != w {
			t.Fatalf("Add: %v", c.Data())
		}
	}
	c = a.Clone()
	Mul(c, b)
	for i, w := range []float32{10, 40, 90, 160} {
		if c.Data()[i] != w {
			t.Fatalf("Mul: %v", c.Data())
		}
	}
	Scale(c, 0.5)
	for i, w := range []float32{5, 20, 45, 80} {
		if c.Data()[i] != w {
			t.Fatalf("Scale: %v", c.Data())
		}
	}
}

func TestAddBiasSumRows(t *testing.T) {
	a := New(3, 2)
	bias := FromSlice([]float32{1, -1}, 2)
	AddBias(a, bias)
	for i := 0; i < 3; i++ {
		if a.At(i, 0) != 1 || a.At(i, 1) != -1 {
			t.Fatalf("AddBias: %v", a.Data())
		}
	}
	s := New(2)
	SumRowsInto(s, a, false)
	if s.At(0) != 3 || s.At(1) != -3 {
		t.Fatalf("SumRowsInto: %v", s.Data())
	}
}

func TestReLUAndMask(t *testing.T) {
	a := FromSlice([]float32{-1, 0, 2, -3}, 4)
	mask := New(4)
	ReLUWithMask(a, mask)
	want := []float32{0, 0, 2, 0}
	wantMask := []float32{0, 0, 1, 0}
	for i := range want {
		if a.Data()[i] != want[i] || mask.Data()[i] != wantMask[i] {
			t.Fatalf("ReLU: %v mask %v", a.Data(), mask.Data())
		}
	}
}

func TestGELUGradientNumerically(t *testing.T) {
	xs := []float32{-2, -0.5, 0, 0.3, 1.7}
	for _, x := range xs {
		const h = 1e-3
		num := (geluScalar(x+h) - geluScalar(x-h)) / (2 * h)
		pre := FromSlice([]float32{x}, 1)
		grad := FromSlice([]float32{1}, 1)
		GELUBackward(grad, pre)
		if math.Abs(float64(grad.Data()[0]-num)) > 1e-2 {
			t.Errorf("GELU'(%g): analytic %g vs numeric %g", x, grad.Data()[0], num)
		}
	}
}

func TestSumDotNorm(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	if Dot(a, a) != 25 {
		t.Errorf("Dot = %g", Dot(a, a))
	}
	if Sum(a) != 7 {
		t.Errorf("Sum = %g", Sum(a))
	}
}

func TestHasNonFinite(t *testing.T) {
	a := []float32{1, 2}
	if HasNonFiniteSlice(a) {
		t.Error("false positive")
	}
	a[1] = float32(math.Inf(1))
	if !HasNonFiniteSlice(a) {
		t.Error("missed Inf")
	}
	a[1] = float32(math.NaN())
	if !HasNonFiniteSlice(a) {
		t.Error("missed NaN")
	}
}

// refHasNonFinite is the pre-parallelization reference scan the pooled
// chunked scan is golden-tested against.
func refHasNonFinite(s []float32) bool {
	for _, v := range s {
		f := float64(v)
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return true
		}
	}
	return false
}

// TestHasNonFiniteParallelGolden pins the chunked worker-pool scan to the
// serial reference across slice sizes spanning the serial/parallel
// dispatch boundary, poison values (±Inf, NaN) planted at chunk edges and
// interiors, and several worker counts.
func TestHasNonFiniteParallelGolden(t *testing.T) {
	defer SetWorkers(SetWorkers(0))
	sizes := []int{0, 1, 100, nonFiniteGrain, nonFiniteGrain + 1, 3*nonFiniteGrain + 17, 8 * nonFiniteGrain}
	for _, size := range sizes {
		base := New(size)
		fillSeq(base, NewRNG(uint64(size)|1))
		positions := []int{-1} // -1: clean slice
		if size > 0 {
			positions = append(positions, 0, size/2, size-1)
		}
		for _, pos := range positions {
			for _, poison := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				s := base.Clone().Data()
				if pos >= 0 {
					s[pos] = float32(poison)
				}
				want := refHasNonFinite(s)
				for _, w := range []int{1, 3, 8} {
					SetWorkers(w)
					if got := HasNonFiniteSlice(s); got != want {
						t.Fatalf("size=%d pos=%d poison=%g workers=%d: got %v, want %v",
							size, pos, poison, w, got, want)
					}
				}
			}
		}
	}
}

// TestHasNonFiniteZeroAlloc pins the overflow check's dispatch: the fp16
// training step calls it once per parameter per step inside a zero-alloc
// contract.
func TestHasNonFiniteZeroAlloc(t *testing.T) {
	t.Setenv("SAMO_GEMM_TUNE", "off") // hermetic process-wide alloc counting

	big := make([]float32, 4*nonFiniteGrain)
	HasNonFiniteSlice(big) // warm job pool and workers
	if n := testing.AllocsPerRun(50, func() { HasNonFiniteSlice(big) }); n != 0 {
		t.Fatalf("HasNonFiniteSlice allocates %.1f per call, want 0", n)
	}
}
