package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// The GELU and softmax-exponent kernels (exp_amd64.s) against their Go loops
// (geluEval, geluDeriv, expShifted in ops.go), bit for bit. On a host or
// build without the kernels every comparison is the Go loop against itself.

// expLens are every length up to four vector groups and a tail, and 8k±1
// around a few more groups.
var expLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 25, 31, 33, 63, 65}

// geluU is the argument GELU hands math.Tanh, as geluTanh computes it.
func geluU(x float32) float64 {
	x64 := float64(x)
	return geluC * (x64 + 0.044715*x64*x64*x64)
}

// geluEdge returns the smallest positive float32 whose |u| passes edge (≥ or
// >, as math.Tanh's switch tests it).
func geluEdge(edge float64, strict bool) float32 {
	lo, hi := uint32(0), math.Float32bits(100) // u(0) = 0, u(100) ≫ 44
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		u := geluU(math.Float32frombits(mid))
		if u > edge || (!strict && u == edge) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float32frombits(hi)
}

// expSpecials are the inputs a kernel must hand to the Go loop (infinities,
// NaN payloads) or get right at the edges: signed zeros, the float32
// subnormals, the largest finite values, and the inputs on either side of
// math.Tanh's two branch edges, |u| = 0.625 and |u| = MAXLOG/2 ≈ 44.01.
func expSpecials() []float32 {
	bits := []uint32{0, 1, 2, 0x007FFFFF, 0x00800000, 0x7F7FFFFF, // zero, subnormals, smallest normal, largest finite
		0x7F800000, 0x7F800001, 0x7FBFFFFF, 0x7FC00000, 0x7FC00001, 0x7FFFFFFF, 0x7FA5A5A5} // Inf, NaN payloads
	const maxlog = 8.8029691931113054295988e+01 // math/tanh.go's MAXLOG
	for _, e := range []float32{geluEdge(0.625, false), geluEdge(0.5*maxlog, true)} {
		b := math.Float32bits(e)
		for d := uint32(0); d < 5; d++ {
			bits = append(bits, b-2+d)
		}
	}
	var s []float32
	for _, b := range bits {
		s = append(s, math.Float32frombits(b), math.Float32frombits(b|1<<31))
	}
	return s
}

// withExpKernel runs f with the kernels forced off, then (on a host that
// selected them at start-up) on. Not safe beside a concurrent caller: it
// flips the package's kernel selection.
func withExpKernel(t *testing.T, f func(vector bool)) {
	t.Helper()
	host := expVector
	defer func() { expVector = host }()
	expVector = false
	f(false)
	if host {
		expVector = true
		f(true)
	}
}

// firstBitDiff is the first index where a and b differ in any bit, or −1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// expCase is one input slice the kernels run on: normal(σ) values with
// the specials planted at a stride.
func expCase(n int, sigma float64, seed uint64) []float32 {
	rng := NewRNG(seed)
	sp := expSpecials()
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.Norm() * sigma)
		if i%7 == int(seed%7) {
			s[i] = sp[(i/7+int(seed))%len(sp)]
		}
	}
	return s
}

// TestGELUVectorKernels holds GELUInPlace and GELUWithDeriv on the kernel
// to the Go loops at every length in expLens, on normal inputs of three
// widths with the specials planted in every position class, and on the
// specials alone.
func TestGELUVectorKernels(t *testing.T) {
	var inputs [][]float32
	for _, n := range expLens {
		for k, sigma := range []float64{0.5, 1, 8} {
			inputs = append(inputs, expCase(n, sigma, uint64(7*n+k)))
		}
	}
	inputs = append(inputs, expSpecials())
	for _, in := range inputs {
		var ref, refD []float32
		withExpKernel(t, func(vector bool) {
			x := append([]float32(nil), in...)
			GELUInPlace(FromSlice(x, len(x)))
			y, d := append([]float32(nil), in...), make([]float32, len(in))
			GELUWithDeriv(FromSlice(y, len(y)), FromSlice(d, len(d)))
			if i := firstBitDiff(x, y); i >= 0 {
				t.Fatalf("n=%d vector=%v: GELUInPlace(%g) = %#08x, GELUWithDeriv value %#08x", len(in), vector, in[i], math.Float32bits(x[i]), math.Float32bits(y[i]))
			}
			if !vector {
				ref, refD = x, d
				return
			}
			if i := firstBitDiff(x, ref); i >= 0 {
				t.Fatalf("n=%d: GELU(%g) = %#08x on the kernel, %#08x on the Go loop", len(in), in[i], math.Float32bits(x[i]), math.Float32bits(ref[i]))
			}
			if i := firstBitDiff(d, refD); i >= 0 {
				t.Fatalf("n=%d: GELU'(%g) = %#08x on the kernel, %#08x on the Go loop", len(in), in[i], math.Float32bits(d[i]), math.Float32bits(refD[i]))
			}
		})
	}
}

// TestExpShiftedVectorKernel holds ExpShifted on the kernel to the Go loop:
// softmax rows (shift = the row maximum) at every length in expLens, rows
// whose arguments leave the kernel's range (a −1e4 score, −Inf, NaN), and
// the specials under a few shifts.
func TestExpShiftedVectorKernel(t *testing.T) {
	type row struct {
		s     []float32
		shift float32
	}
	var rows []row
	for _, n := range expLens {
		for k, sigma := range []float64{1, 4, 40} {
			rng := NewRNG(uint64(11*n + k))
			s := make([]float32, n)
			maxv := float32(math.Inf(-1))
			for i := range s {
				s[i] = float32(rng.Norm() * sigma)
				switch {
				case k == 1 && i%9 == 4:
					s[i] = -1e4
				case k == 2 && i%11 == 6:
					s[i] = float32(math.Inf(-1))
				case k == 2 && i == 5:
					s[i] = float32(math.NaN())
				}
				maxv = max(maxv, s[i])
			}
			rows = append(rows, row{s, maxv})
		}
	}
	for _, shift := range []float32{0, 1, -3.5, 700, -700} {
		rows = append(rows, row{expSpecials(), shift})
	}
	for _, r := range rows {
		var ref []float32
		withExpKernel(t, func(vector bool) {
			s := append([]float32(nil), r.s...)
			ExpShifted(s, r.shift)
			if !vector {
				ref = s
				return
			}
			if i := firstBitDiff(s, ref); i >= 0 {
				t.Fatalf("n=%d shift=%g: exp(%g − shift) = %#08x on the kernel, %#08x on the Go loop", len(s), r.shift, r.s[i], math.Float32bits(s[i]), math.Float32bits(ref[i]))
			}
		})
	}
}

// sweepExp runs every float32 bit pattern in [lo, hi] through the kernels
// and the Go loops and reports the first input each kernel gets wrong: GELU
// (value, and value with derivative), and ExpShifted at shift 0 when exp is
// set. In order, each group of four holds neighbouring
// patterns, which nearly always take the same tanh branch; mixed, lane k of
// group g holds pattern lo + k·N/4 + g (N = hi − lo + 1, a multiple of 4), so
// the four lanes come from the four quarters of the range. Blocks are split
// over GOMAXPROCS goroutines; the kernels are called through the exported
// functions, which reach them on this host (the caller skips otherwise).
func sweepExp(t *testing.T, lo, hi uint32, mixed, exp bool) {
	t.Helper()
	const block = 1 << 12
	workers := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	bad := map[string]uint32{}
	report := func(what string, b uint32) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := bad[what]; !ok {
			bad[what] = b
		}
	}
	total := uint64(hi) - uint64(lo) + 1
	if mixed && total%4 != 0 {
		t.Fatalf("mixed sweep over %d patterns, not a multiple of 4", total)
	}
	pattern := func(e uint64) uint32 {
		if mixed {
			return uint32(uint64(lo) + e%4*(total/4) + e/4)
		}
		return uint32(uint64(lo) + e)
	}
	blocks := (total + block - 1) / block
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := make([]float32, block)
			want, got, wantD, gotD := make([]float32, block), make([]float32, block), make([]float32, block), make([]float32, block)
			for k := uint64(w) * blocks / uint64(workers); k < uint64(w+1)*blocks/uint64(workers); k++ {
				base := k * block
				n := min(block, total-base)
				s := src[:n]
				for i := range s {
					s[i] = math.Float32frombits(pattern(base + uint64(i)))
				}
				check := func(what string, g, w []float32) {
					if i := firstBitDiff(g[:n], w[:n]); i >= 0 {
						report(what, math.Float32bits(s[i]))
					}
				}
				// One oracle pass: geluDeriv's value is geluEval's expression
				// (TestGELUVectorKernels holds the two Go loops equal).
				copy(want, s)
				geluDeriv(want[:n], wantD[:n])
				copy(got, s)
				GELUInPlace(FromSlice(got[:n], int(n)))
				check("GELU", got, want)
				copy(got, s)
				GELUWithDeriv(FromSlice(got[:n], int(n)), FromSlice(gotD[:n], int(n)))
				check("GELUWithDeriv value", got, want)
				check("GELUWithDeriv derivative", gotD, wantD)
				if exp {
					copy(want, s)
					expShifted(want[:n], 0)
					copy(got, s)
					ExpShifted(got[:n], 0)
					check("ExpShifted", got, want)
				}
			}
		}(w)
	}
	wg.Wait()
	for what, b := range bad {
		t.Errorf("%s differs from the Go loop at input %#08x (%g), and maybe beyond", what, b, math.Float32frombits(b))
	}
}

// TestGELUExpBand sweeps every float32 input whose GELU reaches the
// exponential, and the top of the rational branch below it: |x| ∈ [0.25, 12)
// (|u| ≥ 0.625 starts near 0.75, |u| > 44.01 saturates near 9.5), the band
// where the kernel's non-FMA exp and an FMA host's math.Exp could part. The
// lanes are mixed, so nearly every group takes both the rational form and
// the exponential, as groups of a real layer do. About 92 M inputs, a few
// seconds on two cores.
func TestGELUExpBand(t *testing.T) {
	if !expVector {
		t.Skip("no vector exp kernel on this host or build")
	}
	lo, hi := math.Float32bits(0.25), math.Float32bits(12)-1
	sweepExp(t, lo, hi, true, false)
	sweepExp(t, lo|1<<31, hi|1<<31, true, false)
}

// TestExpKernelsEveryFloat32 runs all 2³² float32 bit patterns through the
// GELU kernels and ExpShifted's. It takes about a minute of CPU, so -short
// skips it, and race builds (far slower instrumented) do too; CI runs it in
// a step of its own.
func TestExpKernelsEveryFloat32(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("full 2^32 sweep: skipped under -short and -race")
	}
	if !expVector {
		t.Skip("no vector exp kernel on this host or build")
	}
	sweepExp(t, 0, math.MaxUint32, false, true)
}

// TestExpKernelsZeroAlloc pins the kernel paths allocation-free.
func TestExpKernelsZeroAlloc(t *testing.T) {
	x, d := expCase(1027, 1, 3), make([]float32, 1027)
	xt, dt := FromSlice(x, len(x)), FromSlice(d, len(d))
	for name, f := range map[string]func(){
		"GELUInPlace":   func() { GELUInPlace(xt) },
		"GELUWithDeriv": func() { GELUWithDeriv(xt, dt) },
		"ExpShifted":    func() { ExpShifted(x, 0) },
	} {
		if n := testing.AllocsPerRun(50, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// BenchmarkGELUEval and BenchmarkGELUDeriv time GELU over 4096 normal(σ)
// inputs, restored by a copy before each pass, on the Go loop and (on an
// AVX2 host) the kernel; ns/elem is the figure to read. σ = 0.2 is about a
// freshly initialised GPT's FC1 output, where every group takes the kernel's
// rational-only path; at σ = 1 most groups need the exponential as well.
func BenchmarkGELUEval(b *testing.B) {
	benchGELU(b, func(x, _ *Tensor) { GELUInPlace(x) })
}

func BenchmarkGELUDeriv(b *testing.B) {
	benchGELU(b, GELUWithDeriv)
}

func benchGELU(b *testing.B, f func(x, d *Tensor)) {
	const n = 4096
	x, d := New(n), New(n)
	host := expVector
	defer func() { expVector = host }()
	for _, sigma := range []float64{0.2, 1} {
		rng := NewRNG(5)
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.Norm() * sigma)
		}
		for _, vector := range []bool{false, true} {
			if vector && !host {
				continue
			}
			b.Run(fmt.Sprintf("sigma=%g/kernel=%s", sigma, map[bool]string{false: "go", true: "avx2"}[vector]), func(b *testing.B) {
				expVector = vector
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(x.Data(), src)
					f(x, d)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
			})
		}
	}
}
