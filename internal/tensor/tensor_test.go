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
	a.Data()[5] = 5
	if a.At(1, 2) != 5 {
		t.Errorf("At(1,2) = %g, want 5: row-major layout violated", a.At(1, 2))
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

// bitwiseEqual compares element representations, not values: it
// distinguishes -0 from +0 and would catch any NaN-payload drift, which
// MaxAbsDiff's arithmetic comparison cannot.
func bitwiseEqual(a, b *Tensor) (int, bool) {
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return i, false
		}
	}
	return -1, true
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	fn()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Error("different seeds should differ")
	}
}

func TestRNGNormMoments(t *testing.T) {
	rng := NewRNG(7)
	var sum, sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := rng.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Errorf("Norm moments off: mean %g var %g", mean, variance)
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
			c.Data()[i*n+j] = float32(s)
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

// TestGELUGradientNumerically checks GELUWithDeriv's derivative against a
// central difference, and pins both of its outputs bit for bit: the values
// to GELUInPlace's, the derivative to its closed form evaluated on its own
// (the backward that recomputed tanh from cached pre-activations).
func TestGELUGradientNumerically(t *testing.T) {
	xs := []float32{-2, -0.5, 0, 0.3, 1.7}
	for i := -600; i <= 600; i++ {
		xs = append(xs, float32(i)/97)
	}
	y, deriv := FromSlice(append([]float32(nil), xs...), len(xs)), New(len(xs))
	GELUWithDeriv(y, deriv)
	for i, x := range xs {
		const h = 1e-3
		num := (geluScalar(x+h) - geluScalar(x-h)) / (2 * h)
		if math.Abs(float64(deriv.Data()[i]-num)) > 1e-2 {
			t.Errorf("GELU'(%g): analytic %g vs numeric %g", x, deriv.Data()[i], num)
		}
		if y.Data()[i] != geluScalar(x) {
			t.Errorf("GELU(%g) = %g, GELUInPlace gives %g", x, y.Data()[i], geluScalar(x))
		}
		x64 := float64(x)
		th := math.Tanh(0.7978845608028654 * (x64 + 0.044715*x64*x64*x64))
		du := 0.7978845608028654 * (1 + 3*0.044715*x64*x64)
		if want := float32(0.5*(1+th) + 0.5*x64*(1-th*th)*du); math.Float32bits(deriv.Data()[i]) != math.Float32bits(want) {
			t.Errorf("GELU'(%g) = %x, closed form %x", x, math.Float32bits(deriv.Data()[i]), math.Float32bits(want))
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
	bothSweepKernels(t, func() { hasNonFiniteParallelGolden(t) })
}

func hasNonFiniteParallelGolden(t *testing.T) {
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

// bothSweepKernels runs f under the Go sweeps and then, on a host that
// selected them at start-up, under the AVX2 ones. Not safe beside a
// concurrent sweep: it flips the package's kernel selection.
func bothSweepKernels(t *testing.T, f func()) {
	t.Helper()
	host, kernel := sweepVector, "go"
	defer func() {
		sweepVector = host
		if t.Failed() {
			t.Logf("sweep kernel under test: %s", kernel)
		}
	}()
	sweepVector = false
	f()
	if !host {
		return
	}
	sweepVector, kernel = true, "avx2"
	f()
}

// sweepLens are every length up to two vector bodies and a tail, and 8k±1
// around a few more bodies (the AVX2 scan takes 32 elements a round, then 8).
var sweepLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 39, 41, 63, 65, 255, 257}

// TestSweepVectorKernels holds the AVX2 non-finite scan and ScaleSlice to
// the Go loops from odd start offsets: the scan with an Inf or a NaN of
// either sign at every position (and, for the flagged bit patterns, the
// largest finite values beside them), ScaleSlice bit for bit on signed
// zeros, subnormals, overflowing products, infinities and NaNs.
func TestSweepVectorKernels(t *testing.T) {
	specials := []uint32{0, 0x80000000, 1, 0x80000001, 0x7F7FFFFF, 0xFF7FFFFF, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001, 0x7F800001}
	host := sweepVector
	defer func() { sweepVector = host }()
	for _, n := range sweepLens {
		for _, off := range []int{0, 1, 3} {
			base := make([]float32, off+n)[off:]
			for i := range base {
				base[i] = float32(i%13-6) * 0.37
				if i%5 == 2 {
					base[i] = math.MaxFloat32 // largest finite: exponent one short of all ones
				}
			}
			for pos := -1; pos < n; pos++ {
				for _, b := range specials[6:] {
					s := append(make([]float32, off, off+n), base...)[off:]
					if pos >= 0 {
						s[pos] = math.Float32frombits(b)
					}
					want := refHasNonFinite(s)
					for _, vec := range []bool{false, host} {
						sweepVector = vec
						if got := hasNonFinite(s); got != want {
							t.Fatalf("n=%d off=%d pos=%d %#08x vector=%v: got %v, want %v", n, off, pos, b, vec, got, want)
						}
					}
				}
			}
			src := append(make([]float32, off, off+n), base...)[off:]
			for i := range src {
				if i%3 == 1 {
					src[i] = math.Float32frombits(specials[(i/3)%len(specials)])
				}
			}
			for _, a := range []float32{1.0 / 65536, -3, 1e30, float32(math.Copysign(0, -1))} {
				want := append(make([]float32, off, off+n), src...)[off:]
				got := append(make([]float32, off, off+n), src...)[off:]
				sweepVector = false
				ScaleSlice(want, a)
				sweepVector = host
				ScaleSlice(got, a)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("ScaleSlice n=%d off=%d a=%g [%d]: %#08x, Go loop %#08x", n, off, a, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// orderedAddOracle is the serial sum's add by definition: a NaN operand
// comes back quieted, the first operand's before the second's; otherwise the
// float32 sum.
func orderedAddOracle(a, b float32) float32 {
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | 0x00400000)
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | 0x00400000)
	}
	return a + b
}

// addSpecials are the values whose sums the NaN rule decides: both zeros,
// finite values, both infinities, and quiet and signalling NaNs of both
// signs with distinct payloads.
var addSpecials = []uint32{0, 0x80000000, 0x3F800000, 0xBF800000, 0x7F800000, 0xFF800000,
	0x7FC00000, 0xFFC00000, 0x7FC12345, 0xFFD00001, 0x7F800001, 0xFF812345}

func TestOrderedAddTakesTheFirstNaN(t *testing.T) {
	for _, x := range addSpecials {
		for _, y := range addSpecials {
			a, b := math.Float32frombits(x), math.Float32frombits(y)
			got, want := math.Float32bits(OrderedAdd(a, b)), math.Float32bits(orderedAddOracle(a, b))
			if got != want {
				t.Errorf("OrderedAdd(%#08x, %#08x) = %#08x, want %#08x", x, y, got, want)
			}
		}
	}
}

// TestAddIntoMatchesOracle holds AddInto and AddIntoRev to the oracle bit
// for bit, with every ordered pair of specials meeting in the first L²
// elements.
func TestAddIntoMatchesOracle(t *testing.T) {
	l := len(addSpecials)
	for _, n := range append(sweepLens, l*l, l*l+5) {
		d0, x0 := make([]float32, n), make([]float32, n)
		for i := range d0 {
			d0[i], x0[i] = float32(i%13-6)*0.37, float32(i%7)*1.25e-3
			if k := i % (l * l); i < l*l || i%3 == 0 {
				d0[i] = math.Float32frombits(addSpecials[k%l])
				x0[i] = math.Float32frombits(addSpecials[k/l])
			}
		}
		for _, rev := range []bool{false, true} {
			got := append([]float32(nil), d0...)
			if rev {
				AddIntoRev(got, x0)
			} else {
				AddInto(got, x0)
			}
			for i := range got {
				want := orderedAddOracle(d0[i], x0[i])
				if rev {
					want = orderedAddOracle(x0[i], d0[i])
				}
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("n=%d rev=%v [%d]: %#08x, want %#08x", n, rev, i, math.Float32bits(got[i]), math.Float32bits(want))
				}
			}
		}
	}
}

// TestHasNonFiniteZeroAlloc pins the overflow check's dispatch: the fp16
// training step calls it once per parameter per step inside a zero-alloc
// contract.
func TestHasNonFiniteZeroAlloc(t *testing.T) {
	big := make([]float32, 4*nonFiniteGrain)
	HasNonFiniteSlice(big) // warm job pool and workers
	if n := testing.AllocsPerRun(50, func() { HasNonFiniteSlice(big) }); n != 0 {
		t.Fatalf("HasNonFiniteSlice allocates %.1f per call, want 0", n)
	}
}
