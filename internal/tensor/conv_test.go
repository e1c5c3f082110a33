package tensor

import (
	"math"
	"testing"
)

// naiveConv2d computes a direct NCHW convolution for cross-checking the
// im2col+GEMM path. Weight layout is (outC, inC, k, k).
func naiveConv2d(in, w *Tensor, s ConvSpec) *Tensor {
	n := in.Dim(0)
	oh, ow := s.OutH(), s.OutW()
	out := New(n, s.OutC, oh, ow)
	for img := 0; img < n; img++ {
		for oc := 0; oc < s.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float64
					for ic := 0; ic < s.InC; ic++ {
						for ky := 0; ky < s.Kernel; ky++ {
							for kx := 0; kx < s.Kernel; kx++ {
								iy := oy*s.Stride + ky - s.Pad
								ix := ox*s.Stride + kx - s.Pad
								if iy < 0 || iy >= s.InH || ix < 0 || ix >= s.InW {
									continue
								}
								acc += float64(in.At(img, ic, iy, ix)) * float64(w.At(oc, ic, ky, kx))
							}
						}
					}
					out.Set(float32(acc), img, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func TestIm2ColGEMMEqualsDirectConv(t *testing.T) {
	specs := []ConvSpec{
		{InC: 3, OutC: 4, Kernel: 3, Stride: 1, Pad: 1, InH: 8, InW: 8},
		{InC: 2, OutC: 5, Kernel: 3, Stride: 2, Pad: 1, InH: 9, InW: 7},
		{InC: 1, OutC: 2, Kernel: 1, Stride: 1, Pad: 0, InH: 5, InW: 5},
		{InC: 4, OutC: 3, Kernel: 5, Stride: 1, Pad: 2, InH: 6, InW: 6},
	}
	for _, s := range specs {
		in := randTensor([]int{2, s.InC, s.InH, s.InW}, 11)
		w := randTensor([]int{s.OutC, s.InC, s.Kernel, s.Kernel}, 12)
		cols := New(2*s.OutH()*s.OutW(), s.InC*s.Kernel*s.Kernel)
		Im2ColInto(cols, in, s)
		wmat := w.Reshape(s.OutC, -1) // (outC, inC·k·k)
		out := MatMulT(cols, wmat)    // (n·oh·ow, outC)
		want := naiveConv2d(in, w, s)
		// Rearrange (n·oh·ow, outC) to NCHW for comparison.
		oh, ow := s.OutH(), s.OutW()
		got := New(2, s.OutC, oh, ow)
		for r := 0; r < out.Dim(0); r++ {
			img := r / (oh * ow)
			rem := r % (oh * ow)
			for oc := 0; oc < s.OutC; oc++ {
				got.Set(out.At(r, oc), img, oc, rem/ow, rem%ow)
			}
		}
		if d := MaxAbsDiff(got, want); d > 1e-3 {
			t.Errorf("spec %+v: max diff %g", s, d)
		}
	}
}

func TestCol2ImAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> must equal <x, Col2Im(y)> — the defining property of the
	// backward lowering (they are adjoint linear maps).
	s := ConvSpec{InC: 3, OutC: 1, Kernel: 3, Stride: 2, Pad: 1, InH: 7, InW: 6}
	x := randTensor([]int{2, s.InC, s.InH, s.InW}, 21)
	cols := New(2*s.OutH()*s.OutW(), s.InC*s.Kernel*s.Kernel)
	Im2ColInto(cols, x, s)
	y := randTensor(cols.Shape(), 22)
	lhs := Dot(cols, y)
	back := New(2, s.InC, s.InH, s.InW)
	Col2ImZeroInto(back, y, s, 2)
	rhs := Dot(x, back)
	if math.Abs(lhs-rhs) > 1e-2*math.Abs(lhs) {
		t.Errorf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	out, arg := New(1, 1, 2, 2), make([]int32, 4)
	MaxPool2x2Into(out, arg, in)
	want := []float32{4, 8, 9, 4}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("pool out = %v, want %v", out.Data(), want)
		}
	}
	grad := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	back := New(in.Shape()...)
	MaxPool2x2BackwardInto(back, grad, arg)
	// Gradient flows only to the argmax positions.
	if back.At(0, 0, 1, 1) != 1 || back.At(0, 0, 1, 3) != 2 ||
		back.At(0, 0, 2, 0) != 3 || back.At(0, 0, 3, 2) != 4 {
		t.Errorf("pool backward: %v", back.Data())
	}
	if Sum(back) != 10 {
		t.Errorf("pool backward must conserve grad mass: %g", Sum(back))
	}
}

func TestConvSpecOutputDims(t *testing.T) {
	s := ConvSpec{Kernel: 3, Stride: 1, Pad: 1, InH: 32, InW: 32}
	if s.OutH() != 32 || s.OutW() != 32 {
		t.Errorf("same-pad conv: %dx%d", s.OutH(), s.OutW())
	}
	s = ConvSpec{Kernel: 3, Stride: 2, Pad: 1, InH: 32, InW: 32}
	if s.OutH() != 16 {
		t.Errorf("strided conv: %d", s.OutH())
	}
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

func BenchmarkMatMul256(b *testing.B) {
	x := randTensor([]int{256, 256}, 1)
	y := randTensor([]int{256, 256}, 2)
	c := New(256, 256)
	b.SetBytes(2 * 256 * 256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, x, y, false)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	s := ConvSpec{InC: 16, OutC: 16, Kernel: 3, Stride: 1, Pad: 1, InH: 32, InW: 32}
	in := randTensor([]int{4, 16, 32, 32}, 3)
	cols := New(4*s.OutH()*s.OutW(), s.InC*s.Kernel*s.Kernel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(cols, in, s)
	}
}
