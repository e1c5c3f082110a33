package fp16

import (
	"math"
	"testing"
	"testing/quick"
)

// The half-precision special values and predicates the conversions are
// checked against.
const (
	PosInf Bits = 0x7C00
	NegInf Bits = 0xFC00
	NaN    Bits = 0x7E00
)

// IsInf reports whether h is ±infinity.
func IsInf(h Bits) bool { return h&0x7FFF == expMask }

// IsNaN reports whether h is a NaN.
func IsNaN(h Bits) bool { return h&expMask == expMask && h&fracMask != 0 }

func TestRoundTripExactValues(t *testing.T) {
	// Every value exactly representable in fp16 must survive a round trip.
	cases := []float32{0, 1, -1, 0.5, -0.5, 2, 1024, 65504, -65504, 0.25,
		1.5, 3.140625, 6.1035156e-05 /* smallest normal */, 5.9604645e-08 /* smallest subnormal */}
	for _, f := range cases {
		if got := Round(f); got != f {
			t.Errorf("Round(%g) = %g, want exact", f, got)
		}
	}
}

func TestSpecialValues(t *testing.T) {
	if !IsInf(FromFloat32(float32(math.Inf(1)))) {
		t.Error("+Inf did not convert to half +Inf")
	}
	if !IsInf(FromFloat32(float32(math.Inf(-1)))) {
		t.Error("-Inf did not convert to half -Inf")
	}
	if !IsNaN(FromFloat32(float32(math.NaN()))) {
		t.Error("NaN did not convert to half NaN")
	}
	if got := ToFloat32(PosInf); !math.IsInf(float64(got), 1) {
		t.Errorf("ToFloat32(PosInf) = %g", got)
	}
	if got := ToFloat32(NegInf); !math.IsInf(float64(got), -1) {
		t.Errorf("ToFloat32(NegInf) = %g", got)
	}
	if got := ToFloat32(NaN); !math.IsNaN(float64(got)) {
		t.Errorf("ToFloat32(NaN) = %g", got)
	}
}

func TestOverflowToInfinity(t *testing.T) {
	for _, f := range []float32{65520, 1e5, 1e20, 3.4e38} {
		h := FromFloat32(f)
		if !IsInf(h) {
			t.Errorf("FromFloat32(%g) = %#04x, want +Inf", f, uint16(h))
		}
		h = FromFloat32(-f)
		if !IsInf(h) || h&signMask == 0 {
			t.Errorf("FromFloat32(%g) = %#04x, want -Inf", -f, uint16(h))
		}
	}
	// 65504 is the largest finite half; values that round to it stay finite.
	if h := FromFloat32(65504); IsInf(h) {
		t.Error("65504 must stay finite")
	}
}

func TestUnderflowToZero(t *testing.T) {
	h := FromFloat32(1e-10)
	if ToFloat32(h) != 0 {
		t.Errorf("1e-10 should underflow to zero, got %g", ToFloat32(h))
	}
	h = FromFloat32(-1e-10)
	if got := ToFloat32(h); got != 0 || math.Signbit(float64(got)) == false {
		t.Errorf("-1e-10 should underflow to -0, got %g", got)
	}
}

func TestSubnormals(t *testing.T) {
	// 2^-24 is the smallest positive subnormal half.
	small := float32(math.Ldexp(1, -24))
	if got := Round(small); got != small {
		t.Errorf("smallest subnormal: got %g want %g", got, small)
	}
	// Halfway below the smallest subnormal rounds to zero (ties to even).
	half := float32(math.Ldexp(1, -25))
	if got := Round(half); got != 0 {
		t.Errorf("2^-25 should round to zero (tie to even), got %g", got)
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; ties go to even (1).
	f := float32(1 + math.Ldexp(1, -11))
	if got := Round(f); got != 1 {
		t.Errorf("tie should round to even: got %g want 1", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; even neighbour is 1+2^-9.
	f = float32(1 + 3*math.Ldexp(1, -11))
	want := float32(1 + math.Ldexp(1, -9))
	if got := Round(f); got != want {
		t.Errorf("tie should round to even: got %g want %g", got, want)
	}
}

func TestRoundIdempotent(t *testing.T) {
	// Quantizing twice must equal quantizing once, for arbitrary floats.
	f := func(f float32) bool {
		once := Round(f)
		if math.IsNaN(float64(once)) {
			return true // NaN != NaN; skip
		}
		return Round(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundMonotone(t *testing.T) {
	// Rounding preserves (non-strict) order for finite inputs.
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Round(a) <= Round(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundErrorBound(t *testing.T) {
	// For normal-range values, relative error is at most 2^-11.
	f := func(f float32) bool {
		a := math.Abs(float64(f))
		if a < 6.2e-5 || a > 65000 || math.IsNaN(float64(f)) {
			return true
		}
		r := Round(f)
		return math.Abs(float64(r-f)) <= a*math.Ldexp(1, -11)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveBitsRoundTrip(t *testing.T) {
	// Every one of the 65536 half bit patterns must round-trip through
	// float32 exactly (fp16 ⊂ fp32).
	for i := 0; i <= 0xFFFF; i++ {
		h := Bits(i)
		f := ToFloat32(h)
		if math.IsNaN(float64(f)) {
			if !IsNaN(FromFloat32(f)) {
				t.Fatalf("NaN pattern %#04x did not round-trip to a NaN", i)
			}
			continue
		}
		if got := FromFloat32(f); got != h {
			t.Fatalf("bits %#04x -> %g -> %#04x", i, f, uint16(got))
		}
	}
}

func TestSignPreservation(t *testing.T) {
	f := func(f float32) bool {
		if math.IsNaN(float64(f)) {
			return true
		}
		r := Round(f)
		if r == 0 {
			return true // signed zero checked elsewhere
		}
		return (r < 0) == (f < 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	src := make([]float32, 4096)
	for i := range src {
		src[i] = float32(i) * 0.37
	}
	dst := make([]Bits, len(src))
	b.SetBytes(int64(len(src) * 4))
	for i := 0; i < b.N; i++ {
		for j, f := range src {
			dst[j] = FromFloat32(f)
		}
	}
}

func BenchmarkToFloat32(b *testing.B) {
	src := make([]Bits, 4096)
	for i := range src {
		src[i] = Bits(i & 0x7BFF)
	}
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 2))
	for i := 0; i < b.N; i++ {
		for j, h := range src {
			dst[j] = ToFloat32(h)
		}
	}
}
