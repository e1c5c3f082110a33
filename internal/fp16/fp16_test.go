package fp16

import (
	"math"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// The oracle: the two-step binary16 conversion Round was defined as before
// it became one bit-domain rounding — float32 → half bits → float32, each
// step written out case by case. Round must equal roundOracle bit for bit on
// every input.

// Bits is a raw IEEE 754 binary16 value.
type Bits uint16

const (
	signMask    = 0x8000
	expMask     = 0x7C00
	fracMask    = 0x03FF
	expBias     = 15
	maxExp      = 0x1F
	fracBits    = 10
	f32FracBits = 23
	f32ExpBias  = 127
	f32InfBits  = 0x7F800000
)

// FromFloat32 converts a float32 to binary16 with round-to-nearest-even.
// Values whose magnitude exceeds the largest finite half (65504) become
// infinities, matching hardware cast semantics (and making overflow visible
// to the dynamic loss scaler rather than silently saturating).
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	sign := Bits(b>>16) & signMask
	b &= 0x7FFFFFFF

	if b >= f32InfBits {
		if b > f32InfBits {
			// NaN: preserve a quiet NaN payload bit.
			return sign | expMask | 0x0200
		}
		return sign | expMask
	}

	// Rebias exponent from float32's 127 to float16's 15.
	exp := int32(b>>f32FracBits) - f32ExpBias + expBias
	frac := b & 0x007FFFFF

	switch {
	case exp >= maxExp:
		// Overflow to infinity.
		return sign | expMask
	case exp <= 0:
		// Subnormal half (or underflow to zero). Shift the implicit leading
		// one into the fraction and round.
		if exp < -10 {
			return sign // underflows to zero even after rounding
		}
		frac |= 0x00800000 // make the implicit bit explicit
		shift := uint32(14 - exp)
		halfFrac := frac >> shift
		// Round to nearest even.
		roundBit := uint32(1) << (shift - 1)
		if frac&roundBit != 0 && (frac&(roundBit-1) != 0 || halfFrac&1 != 0) {
			halfFrac++
		}
		return sign | Bits(halfFrac)
	default:
		halfFrac := frac >> (f32FracBits - fracBits)
		// Round to nearest even on the 13 dropped bits.
		const roundBit = 1 << (f32FracBits - fracBits - 1)
		if frac&roundBit != 0 && (frac&(roundBit-1) != 0 || halfFrac&1 != 0) {
			halfFrac++
			if halfFrac == 0x400 { // fraction overflow: bump exponent
				halfFrac = 0
				exp++
				if exp >= maxExp {
					return sign | expMask
				}
			}
		}
		return sign | Bits(exp<<fracBits) | Bits(halfFrac)
	}
}

// ToFloat32 converts a binary16 value to float32 exactly (every half value is
// representable in single precision).
func ToFloat32(h Bits) float32 {
	sign := uint32(h&signMask) << 16
	exp := uint32(h&expMask) >> fracBits
	frac := uint32(h & fracMask)

	switch {
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal half: normalize into float32. After k left shifts the
		// implicit bit is set and the value is (1+m/2^10)·2^(-14-k).
		k := uint32(0)
		for frac&0x400 == 0 {
			frac <<= 1
			k++
		}
		frac &= fracMask
		f32exp := uint32(f32ExpBias) - 14 - k
		return math.Float32frombits(sign | f32exp<<f32FracBits | frac<<(f32FracBits-fracBits))
	case exp == maxExp:
		if frac == 0 {
			return math.Float32frombits(sign | f32InfBits)
		}
		return math.Float32frombits(sign | f32InfBits | frac<<(f32FracBits-fracBits))
	default:
		f32exp := exp - expBias + f32ExpBias
		return math.Float32frombits(sign | f32exp<<f32FracBits | frac<<(f32FracBits-fracBits))
	}
}

func roundOracle(f float32) float32 { return ToFloat32(FromFloat32(f)) }

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

// checkRound compares Round with the oracle by bits, NaNs included.
func checkRound(t *testing.T, f float32) {
	t.Helper()
	got, want := math.Float32bits(Round(f)), math.Float32bits(roundOracle(f))
	if got != want {
		t.Fatalf("Round(%#08x = %g) = %#08x, oracle %#08x", math.Float32bits(f), f, got, want)
	}
}

// checkAround checks f, its two float32 neighbours and the negatives of all
// three.
func checkAround(t *testing.T, f float32) {
	t.Helper()
	b := math.Float32bits(f)
	for _, v := range []uint32{b - 1, b, b + 1} {
		checkRound(t, math.Float32frombits(v))
		checkRound(t, math.Float32frombits(v^signBit))
	}
}

// TestRoundMatchesOracleEdges is the always-on sweep of where a rounding can
// go wrong: every half value, every midpoint between adjacent halves (the
// ties), the overflow and underflow edges, float32 subnormals, signed zeros,
// infinities and NaNs with payloads — each with its ±1-ulp float32
// neighbours and in both signs.
func TestRoundMatchesOracleEdges(t *testing.T) {
	for h := 0; h <= 0x7C00; h++ { // +0 … +Inf; checkAround adds the negatives
		lo := ToFloat32(Bits(h))
		checkAround(t, lo)
		if h < 0x7C00 {
			hi := float64(65536) // the half grid's next point above 65504, were it finite
			if h < 0x7BFF {
				hi = float64(ToFloat32(Bits(h + 1)))
			}
			checkAround(t, float32((float64(lo)+hi)/2)) // exact: 12 significant bits
		}
	}
	for h := 0x7C01; h <= 0x7FFF; h++ { // half NaNs, widened
		checkAround(t, ToFloat32(Bits(h)))
	}
	for _, f := range []float32{65504, 65520, 65536, float32(math.Ldexp(1, -14)), float32(math.Ldexp(1, -24)),
		float32(math.Ldexp(1, -25)), float32(math.Ldexp(3, -25)), math.MaxFloat32, math.SmallestNonzeroFloat32} {
		checkAround(t, f)
	}
	for _, b := range []uint32{0, 1, 2, 0x007FFFFF, 0x00800000, // zero, float32 subnormals, smallest normal
		0x7F800000, 0x7F800001, 0x7FBFFFFF, 0x7FC00000, 0x7FC00001, 0x7FFFFFFF, 0x7FA5A5A5} { // Inf, NaN payloads
		checkRound(t, math.Float32frombits(b))
		checkRound(t, math.Float32frombits(b|signBit))
	}
}

// TestRoundMatchesOracleAll compares Round with the oracle on all 2³²
// float32 bit patterns, split over GOMAXPROCS goroutines. It takes about
// half a minute of CPU, so -short skips it, and race builds (an order of
// magnitude slower) do too; CI runs it in a step of its own.
func TestRoundMatchesOracleAll(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("full 2^32 sweep: skipped under -short and -race")
	}
	workers := runtime.GOMAXPROCS(0)
	bad := make([]int64, workers) // first mismatching pattern per worker, -1 for none
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bad[w] = -1
			lo, hi := uint64(w)<<32/uint64(workers), uint64(w+1)<<32/uint64(workers)
			for b := lo; b < hi; b++ {
				f := math.Float32frombits(uint32(b))
				if math.Float32bits(Round(f)) != math.Float32bits(roundOracle(f)) {
					bad[w] = int64(b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, b := range bad {
		if b >= 0 {
			checkRound(t, math.Float32frombits(uint32(b)))
		}
	}
}

// TestRoundFiniteInlines pins what the kernels' speed rests on: the compiler
// inlines roundFinite into their loops. A change that pushes it over the
// inlining budget would still pass every numeric test, three times slower.
func TestRoundFiniteInlines(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "can inline roundFinite") {
		t.Errorf("roundFinite is no longer inlinable:\n%s", out)
	}
}
