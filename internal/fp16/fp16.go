// Package fp16 implements IEEE 754 binary16 (half precision) conversion.
// SAMO stores the dense parameter tensor θ16 and the compressed gradient
// tensor ∇θ16 in half precision, exactly as mixed-precision training does on
// V100-class hardware; this package is the software stand-in for that
// storage format.
//
// Conversions use round-to-nearest-even, which matches the behaviour of
// CUDA's __float2half_rn and of the float16 casts used by deep learning
// frameworks. Arithmetic is performed in float32 (as on real hardware, where
// fp16 inputs feed fp32 accumulators in tensor cores) — only storage is 16-bit.
package fp16

import "math"

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

// Round simulates a float32 value being stored to half precision and read
// back. It is the quantization applied to every θ16 element.
func Round(f float32) float32 { return ToFloat32(FromFloat32(f)) }
